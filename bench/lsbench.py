"""lanesteer benchmark: three workloads, each a closed loop with one client.

Run from the root of a lanesteer checkout:

    python3 bench/lsbench.py --workload lane_change --seed 1 --seconds 30 --trace 0

Workloads (one op is the unit the op_* metrics time):

  lane_change       one sim.run of lane_change_k10 with k overridden, and an
                    abort time on every fourth op; what `lanesteer sweep`
                    does per grid point
  corner_run        in-process `lanesteer run` of corner_twopoint and of
                    corner_onepoint, in seeded order, each writing its CSV
                    and SVG
  feasibility_grid  one analysis.find_feasible call on a ~64k-point grid

Every input is drawn from --seed.  The program runs in this process on one
thread; set-up (import, scenario loads, input generation) is repeated over
the timed window and its median reported.  With --trace 0 the ops run
untraced and the end-to-end metrics are reported.  With --trace 1 the ops
run untraced for half of --seconds, then the same ops run again with the
public functions of every layer wrapped by a span recorder, and the
per-layer metrics are reported.
Times in the result are scaled to a reference host by the metronome in
bench/metronome.py, and string hashing is pinned, because both the host's
speed and dict layouts otherwise move timings between runs.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
import types
from dataclasses import dataclass, field
from pathlib import Path

import metronome
from metronome import Metronome
from spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
FIXTURE = ROOT / "tests" / "data" / "feasibility_fixture.json"
# traces and per-run scratch output; listed in .gitignore
WORK_DIR = ROOT / ".lsbench"

LAYERS = ("refline", "vehicle", "control", "sim", "analysis", "scenario_io", "svgplot", "cli")
SETUP_REPEATS = 15
INPUT_POOL = 512  # ops cycle through this many seeded inputs
GRID_POOL = 8  # feasibility grids per run
GRID_AXIS = 40  # values per feasibility axis: 40**3 = 64000 points
HASH_SEED = "0"
TRACE_SPANS_WRITTEN = 20000  # of the first traced op, to the trace file

# SHA-256 of the CSV `lanesteer run` writes for each bundled scenario,
# pinned from the simulator as first benchmarked; the simulator is
# bit-reproducible, so any change to these bytes changed the numerics
CSV_SHA256 = {
    "corner_onepoint": "27f49b6068332be88a2b76703078b4cc12d84341f89e2bd52bc51bdbfc505b02",
    "corner_twopoint": "a32d93f53219210fd395b8947943de31d46c795d54fdfe882a2c7d23bf0661ab",
    "lane_change_k05": "f4524982776e1e7677d7800cc1dd35e9d5281f28e5c00e9880f0c5622adcf2ed",
    "lane_change_k10": "ebe5f4a3f539b9e37ad188e6982125803cfb7780a890bb3858909d3a037246fb",
    "lane_change_k15": "168dfb4e0e0f0edcc9476544dc3eabae6a8fba26672c058972f7fb738b60b02b",
}


def import_lanesteer() -> types.SimpleNamespace:
    """Import every layer afresh, so that each set-up pays for the import."""
    for name in [n for n in sys.modules if n.partition(".")[0] == "lanesteer"]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return types.SimpleNamespace(
        **{layer: importlib.import_module(f"lanesteer.{layer}") for layer in LAYERS}
    )


def sha256_of(path) -> tuple[str, bytes]:
    data = Path(path).read_bytes()
    return hashlib.sha256(data).hexdigest(), data


class LaneChange:
    """Integrator and control law on a straight lane; nothing is written.

    Projection takes the straight-line path, and metrics_from_samples
    rebuilds the offset line on every sample.
    """

    name = "lane_change"

    def __init__(self, ls, seed: int, workdir: str):
        self.ls, self.workdir = ls, workdir
        self.base, _ = ls.scenario_io.load(str(SCENARIOS / "lane_change_k10.scenario"))
        period = self.base.control_divisor * self.base.h
        self.samples_per_run = round(self.base.duration / period) + 1
        rng = random.Random(seed)
        # abort windows end by 6 s so that an aborted run has 4 s to turn back
        self.inputs = [
            (rng.uniform(0.5, 1.5), rng.uniform(1.0, 6.0) if i % 4 == 3 else None)
            for i in range(INPUT_POOL)
        ]

    def op(self, i: int):
        k, abort_time = self.inputs[i % INPUT_POOL]
        sim = self.ls.sim
        scenario = sim.apply_override(self.base, "planner.k_per_m", k)
        if abort_time is not None:
            scenario = sim.apply_override(scenario, "sim.abort_time_s", abort_time)
        return sim.run(scenario)

    def check(self, i: int, record) -> int | None:
        """Control periods simulated, or None if the op failed: the run is
        incomplete, a full lane change ends off the 3.5 m target lane, or an
        aborted one has not turned back toward the original lane."""
        if not record.completed or len(record.samples) != self.samples_per_run:
            return None
        ys = [s.y for s in record.samples]
        if self.inputs[i % INPUT_POOL][1] is None:
            ok = abs(ys[-1] - 3.5) < 0.1
        else:
            ok = ys[-1] < max(ys) - 0.5
        return len(ys) - 1 if ok else None

    def verify(self) -> list[str]:
        """The bundled lane-change scenarios still produce their pinned CSVs."""
        problems = []
        for stem in ("lane_change_k05", "lane_change_k10", "lane_change_k15"):
            scenario, _ = self.ls.scenario_io.load(str(SCENARIOS / f"{stem}.scenario"))
            path = os.path.join(self.workdir, f"{stem}.csv")
            self.ls.sim.write_csv(path, self.ls.sim.run(scenario).samples)
            if sha256_of(path)[0] != CSV_SHA256[stem]:
                problems.append(f"{stem}.csv differs from its pinned digest")
        return problems


class CornerRun:
    """`lanesteer run` on the constant-curvature corner, with CSV and SVG.

    Exercises the arc branch of projection and look-ahead, scenario loading
    and output; a corner has no lane-change offset line to rebuild.  One op
    runs both corners, in seeded order: the two-point run takes about a third
    longer, and single runs would make the op-time median jump between them.
    """

    name = "corner_run"
    STEMS = ("corner_twopoint", "corner_onepoint")

    def __init__(self, ls, seed: int, workdir: str):
        self.ls, self.workdir = ls, workdir
        for stem in self.STEMS:
            ls.scenario_io.load(str(SCENARIOS / f"{stem}.scenario"))
        rng = random.Random(seed)
        self.orders = [rng.sample(self.STEMS, 2) for _ in range(INPUT_POOL)]

    def op(self, i: int):
        results = []
        for stem in self.orders[i % INPUT_POOL]:
            argv = [
                "run", "--scenario", str(SCENARIOS / f"{stem}.scenario"),
                "--set", "output.emit_svg=true", "--out", self.workdir,
            ]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = self.ls.cli.main(argv)
            results.append((stem, code, stdout.getvalue()))
        return results

    def check(self, i: int, results) -> int | None:
        """Control periods simulated, or None if the op failed: a non-zero
        exit, an incomplete run, a CSV that differs from its pinned digest,
        or a truncated SVG."""
        periods = 0
        for stem, code, stdout in results:
            if code != 0 or "completed = True" not in stdout.splitlines():
                return None
            digest, data = sha256_of(os.path.join(self.workdir, f"{stem}.csv"))
            svg = Path(self.workdir, f"{stem}.svg").read_text()
            if digest != CSV_SHA256[stem] or not svg.rstrip().endswith("</svg>"):
                return None
            periods += data.count(b"\n") - 2  # rows less the header and t=0 row
        return periods

    def verify(self) -> list[str]:
        return []  # every op checks its CSV against the pinned digest


def jittered(rng: random.Random, grid: list[float], n: int) -> list[float]:
    """n sorted values, the i-th drawn uniformly inside cell i mod m of the
    m cells between consecutive grid values.  With n >= m every cell is
    drawn from, so the near-one gamma cells where corner feasibility lives
    are never missed."""
    cells = list(zip(grid, grid[1:]))
    return sorted(rng.uniform(*cells[i % len(cells)]) for i in range(n))


class FeasibilityGrid:
    """Closed-form parameter search, no simulation.

    Grids are drawn inside the window of the pinned feasibility fixture.
    """

    name = "feasibility_grid"

    def __init__(self, ls, seed: int, workdir: str):
        self.ls = ls
        fixture = json.loads(FIXTURE.read_text())
        self.inputs, self.expected = fixture["inputs"], fixture["feasible"]
        rng = random.Random(seed)
        self.grids = [
            tuple(
                jittered(rng, self.inputs[f"{name}_grid"], GRID_AXIS)
                for name in ("gamma", "lambda0", "k")
            )
            for _ in range(GRID_POOL)
        ]
        self.points_checked = 0
        self.feasible_found = 0

    def _find(self, gamma_grid, lambda0_grid, k_grid):
        inp = self.inputs
        return self.ls.analysis.find_feasible(
            v=inp["v"], lane_width=inp["lane_width"], kappa0=inp["kappa0"],
            c1=inp["c1"], c2=inp["c2"], c3=inp["c3"], alpha=inp["alpha"],
            gamma_grid=gamma_grid, lambda0_grid=lambda0_grid, k_grid=k_grid,
        )

    def op(self, i: int):
        return self._find(*self.grids[i % GRID_POOL])

    def check(self, i: int, reports) -> int | None:
        """Grid points evaluated, or None if the op failed: no feasible set,
        a report out of order, or a report with a failed check."""
        gamma, lambda0, k = self.grids[i % GRID_POOL]
        points = len(gamma) * len(lambda0) * len(k)
        self.points_checked += points
        self.feasible_found += len(reports)
        keys = [
            (r.predicted_curvature_ratio, r.params.gamma, r.params.lambda0, r.params.k)
            for r in reports
        ]
        ok = (
            bool(reports)
            and all(a <= b for a, b in zip(keys, keys[1:]))
            and all(r.feasible and all(c.satisfied for c in r.checks) for r in reports)
        )
        return points if ok else None

    def verify(self) -> list[str]:
        """The search reproduces the pinned fixture on the fixture's grid."""
        inp = self.inputs
        reports = self._find(inp["gamma_grid"], inp["lambda0_grid"], inp["k_grid"])
        got = [
            (r.params.gamma, r.params.lambda0, r.params.k, r.params.lam,
             r.params.delta_d0, r.predicted_curvature_ratio)
            for r in reports
        ]
        want = [
            (row["gamma"], row["lambda0"], row["k"], row["lam"],
             row["delta_d0"], row["predicted_ratio"])
            for row in self.expected
        ]
        if len(got) != len(want) or any(
            abs(a - b) > 1e-12 for g, w in zip(got, want) for a, b in zip(g, w)
        ):
            return [f"find_feasible gave {len(got)} sets, fixture has {len(want)}"
                    " or their values differ"]
        return []


WORKLOADS = {w.name: w for w in (LaneChange, CornerRun, FeasibilityGrid)}


@dataclass
class Tally:
    walls: list[float] = field(default_factory=list)  # s per op, scaled
    cpus: list[float] = field(default_factory=list)  # s per op, scaled
    raw_walls: list[float] = field(default_factory=list)  # s per op, as timed
    units: int = 0  # periods or grid points, over ops that passed their check
    failed: int = 0


def scaled(metro: Metronome, w0: float, w1: float, c0: float = 0.0, c1: float = 0.0):
    """Wall and CPU time of one interval, less the metronome ticks inside
    it, scaled to the reference host."""
    ticks, factor = metro.scale(w0, w1)
    return (w1 - w0 - ticks) * factor, max(c1 - c0 - ticks, 0.0) * factor


def measure(workload, metro: Metronome, seconds: float, max_ops: float = math.inf,
            recorder=None, between=None) -> Tally:
    """Closed loop, one client: run ops back to back until `seconds` have
    passed (at least one op ran) or `max_ops` ops ran.  Each op is timed
    alone; its check, and `between()` if given, run outside the timed
    region."""
    op = workload.op if recorder is None else recorder.wrap("op", workload.op)
    tally = Tally()
    timings = []
    start = time.perf_counter()
    i = 0
    while i < max_ops and (i == 0 or time.perf_counter() - start < seconds):
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            result = op(i)
        except Exception:  # an escaped error fails the op, not the run
            traceback.print_exc(file=sys.stderr)
            result = None
        timings.append((w0, time.perf_counter(), c0, time.process_time()))
        if recorder is not None:
            recorder.fold()
        done = None if result is None else workload.check(i, result)
        if done is None:
            tally.failed += 1
        else:
            tally.units += done
        if between is not None:
            between()
        i += 1
    for w0, w1, c0, c1 in timings:
        wall, cpu = scaled(metro, w0, w1, c0, c1)
        tally.walls.append(wall)
        tally.cpus.append(cpu)
        tally.raw_walls.append(w1 - w0)
    return tally


def trace_targets(ls):
    """(owner, attribute, span name, size) for every traced public function."""

    def file_bytes(args, result):
        return os.path.getsize(args[0])

    def text_bytes(args, result):
        return len(result.encode())

    line = ls.refline.ReferenceLine
    return [
        (ls.cli, "main", "cli.main", None),
        (ls.scenario_io, "load", "scenario_io.load", None),
        (ls.sim, "run", "sim.run", None),
        (ls.sim, "metrics_from_samples", "sim.metrics_from_samples", None),
        (ls.sim, "write_csv", "sim.write_csv", file_bytes),
        (ls.svgplot, "line_chart", "svgplot.line_chart", text_bytes),
        (ls.control, "plan_step", "control.plan_step", None),
        (ls.vehicle, "step", "vehicle.step", None),
        (line, "project", "refline.project", None),
        (line, "lookahead", "refline.lookahead", None),
        (line, "parallel_offset", "refline.parallel_offset", None),
        (ls.analysis, "find_feasible", "analysis.find_feasible", None),
        (ls.analysis, "check_oscillation", "analysis.check_oscillation", None),
        (ls.analysis, "check_abort_safety", "analysis.check_abort_safety", None),
        (ls.analysis, "check_corner_cutting", "analysis.check_corner_cutting", None),
    ]


CHECKS = ("analysis.check_oscillation", "analysis.check_abort_safety",
          "analysis.check_corner_cutting")


def end_to_end_metrics(setup_times, tally: Tally) -> dict:
    wall = sum(tally.walls)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(tally.walls) / wall, "1/s"),
        "work_per_s": (tally.units / wall, "1/s"),
        "op_wall_s.p50": (statistics.median(tally.walls), "s"),
        "op_cpu_s.p50": (statistics.median(tally.cpus), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer_metrics(rec: SpanRecorder, ops: int, overhead: float, workload) -> dict:
    """Per-layer figures from the traced ops.  calls and self_s are per op;
    us_per_call and s_per_call are inclusive of nested spans; a layer the
    workload never calls reads 0."""
    calls = rec.calls.get
    op_ns = rec.total_ns["op"]

    def per_call(name, scale):
        n = calls(name, 0)
        return rec.total_ns[name] / n / scale if n else 0.0

    def self_s(name):
        return rec.self_ns.get(name, 0) / ops / 1e9

    def bytes_per_call(name):
        return rec.bytes.get(name, 0) / max(calls(name, 0), 1)

    points = getattr(workload, "points_checked", 0)
    check_ns = sum(rec.total_ns.get(name, 0) for name in CHECKS)
    return {
        "vehicle.step.calls": (calls("vehicle.step", 0) / ops, "count/op"),
        "vehicle.step.us_per_call": (per_call("vehicle.step", 1e3), "us"),
        "vehicle.step.self_s": (self_s("vehicle.step"), "s/op"),
        "vehicle.step.share": (rec.self_ns.get("vehicle.step", 0) / op_ns, "fraction"),
        "control.plan_step.calls": (calls("control.plan_step", 0) / ops, "count/op"),
        "control.plan_step.us_per_call": (per_call("control.plan_step", 1e3), "us"),
        "control.plan_step.self_s": (self_s("control.plan_step"), "s/op"),
        "refline.project.calls": (calls("refline.project", 0) / ops, "count/op"),
        "refline.project.us_per_call": (per_call("refline.project", 1e3), "us"),
        "refline.project.self_s": (self_s("refline.project"), "s/op"),
        "refline.lookahead.calls": (calls("refline.lookahead", 0) / ops, "count/op"),
        "refline.lookahead.us_per_call": (per_call("refline.lookahead", 1e3), "us"),
        "refline.parallel_offset.calls": (calls("refline.parallel_offset", 0) / ops, "count/op"),
        "sim.run.self_s": (self_s("sim.run"), "s/op"),
        "sim.metrics_from_samples.s_per_call": (per_call("sim.metrics_from_samples", 1e9), "s"),
        "sim.write_csv.s_per_call": (per_call("sim.write_csv", 1e9), "s"),
        "sim.write_csv.bytes": (bytes_per_call("sim.write_csv"), "B"),
        "svgplot.line_chart.s_per_call": (per_call("svgplot.line_chart", 1e9), "s"),
        "svgplot.line_chart.bytes": (bytes_per_call("svgplot.line_chart"), "B"),
        "scenario_io.load.s_per_call": (per_call("scenario_io.load", 1e9), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s/op"),
        "analysis.find_feasible.s_per_call": (per_call("analysis.find_feasible", 1e9), "s"),
        "analysis.checks.us_per_point": (check_ns / points / 1e3 if points else 0.0, "us"),
        "analysis.feasible_ratio": (workload.feasible_found / points if points else 0.0, "fraction"),
        "trace_overhead_frac": (overhead, "fraction"),
    }


def run_info(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host": f"{platform.node()}/{platform.machine()}/{platform.system()}",
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "setup_repeats": SETUP_REPEATS,
        "input_pool": INPUT_POOL,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "tick_interval_s": metronome.INTERVAL_S,
        "reference_tick_s": metronome.REFERENCE_TICK_S,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and verify one workload; return the result fields
    and the extra figures the human-readable report prints."""
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as workdir, Metronome() as metro:
        setup_spans = []

        def set_up():
            t0 = time.perf_counter()
            ls = import_lanesteer()
            workload = WORKLOADS[name](ls, seed, workdir)
            setup_spans.append((t0, time.perf_counter()))
            return ls, workload

        ls, workload = set_up()
        workload.op(0)  # warm-up, untimed and unchecked
        info = run_info(name, seed, seconds, trace)
        if not trace:
            # the remaining set-ups are spread evenly over the timed window,
            # so that their median samples the host as the ops do; each
            # discards what it built
            interval = seconds / (SETUP_REPEATS - 1)
            due = time.perf_counter() + interval

            def between():
                nonlocal due
                if time.perf_counter() >= due:
                    set_up()
                    due += interval

            tally = measure(workload, metro, seconds, between=between)
            setup_times = [scaled(metro, t0, t1)[0] for t0, t1 in setup_spans]
            metrics = end_to_end_metrics(setup_times, tally)
            tallies = [tally]
        else:
            plain = measure(workload, metro, seconds / 2)
            recorder = SpanRecorder()
            with recorder.installed(trace_targets(ls)):
                traced = measure(workload, metro, math.inf, len(plain.walls), recorder)
            overhead = sum(traced.walls) / sum(plain.walls) - 1.0
            metrics = per_layer_metrics(recorder, len(traced.walls), overhead, workload)
            write_trace(name, seed, info, recorder, metrics)
            tally, tallies = plain, [plain, traced]
        problems = workload.verify()
        info["tick_s_median"] = statistics.median(metro.durations or [math.nan])
    attempted = sum(len(t.walls) for t in tallies)
    failed = sum(t.failed for t in tallies)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "info": info,
        "tally": tally,
        "setups": len(setup_spans),
        "workload": workload,
    }


def write_trace(name, seed, info, recorder: SpanRecorder, metrics) -> Path:
    """Write the aggregates and the leading spans of the first traced op."""
    path = WORK_DIR / f"trace_{name}_seed{seed}.json"
    spans = recorder.first_op or []
    doc = {
        "run": info,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "layers": {
            n: {"calls": recorder.calls[n], "total_ns": recorder.total_ns[n],
                "self_ns": recorder.self_ns[n]}
            for n in sorted(recorder.calls)
        },
        "first_op_span_count": len(spans),
        # a prefix of the spans is a whole tree: parents precede children
        "first_op_spans": [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p}
            for n, s, e, p in spans[:TRACE_SPANS_WRITTEN]
        ],
    }
    path.write_text(json.dumps(doc))
    return path


def report_lines(result: dict) -> list[str]:
    """Every end-to-end metric by name and unit, including the ones that
    do not apply to every workload and so are not in the result line."""
    tally, workload = result["tally"], result["workload"]
    n = len(tally.walls)
    metrics = result["metrics"]
    lines = [f"run_info = {json.dumps(result['info'], sort_keys=True)}"]
    if "setup_s" not in metrics:  # traced run
        lines += [f"{k} = {v!r} {u}" for k, (v, u) in metrics.items()]
    else:
        work = metrics["work_per_s"][0]
        is_grid = isinstance(workload, FeasibilityGrid)
        na = "n/a on this workload"
        beyond = 0
        if n >= 10:
            p90 = statistics.quantiles(tally.walls, n=10)[8]
            beyond = sum(1 for w in tally.walls if w > p90)
        p90_line = (
            f"op_wall_s.p90 = {p90!r} s ({n} samples, {beyond} beyond)"
            if beyond >= 10
            else f"op_wall_s.p90 = n/a ({n} samples; fewer than 10 beyond p90)"
        )
        lines += [
            f"setup_s = {metrics['setup_s'][0]!r} s (median of {result['setups']} set-ups)",
            f"periods_per_s = {na if is_grid else f'{work!r} 1/s'}",
            f"ops_per_s = {metrics['ops_per_s'][0]!r} 1/s",
            f"op_wall_s.p50 = {metrics['op_wall_s.p50'][0]!r} s ({n} samples; "
            f"{statistics.median(tally.raw_walls)!r} s as timed)",
            p90_line,
            f"op_cpu_s.p50 = {metrics['op_cpu_s.p50'][0]!r} s ({n} samples)",
            f"feasibility_points_per_s = {f'{work!r} 1/s' if is_grid else na}",
            f"peak_rss_mb = {metrics['peak_rss_mb'][0]!r} MiB",
        ]
    lines.append(
        f"failed_frac = {result['failed'] / result['attempted']!r} "
        f"({result['failed']} of {result['attempted']} ops)"
    )
    lines += [f"verification failed: {p}" for p in result["problems"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashes, and with them dict layouts and timings, vary with
        # the hash seed by several percent between otherwise equal runs;
        # pin it by re-executing this process (no new process is started)
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    missing = [p for p in (SRC / "lanesteer", SCENARIOS, FIXTURE) if not p.exists()]
    if missing:
        print(f"error: not a lanesteer checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    # write no bytecode, so that every set-up in a fresh checkout compiles
    # the program from source
    sys.dont_write_bytecode = True
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report_lines(result):
        print(line)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
