"""Command-line entry point.

Subcommands: run (one scenario to CSV/metrics/SVG), sweep (metrics per
grid point), feasibility (parameter search report), figures (bundled
lane-change and corner demonstration plots).

Exit codes, each mapped once in `main` from the failure's type: 0 success;
1 usage or parse error (`ScenarioFormatError`), an unusable file or
directory (`OSError`) or a closed stdout; 2 validation error
(`ScenarioValidationError`); 3 run failure (any other `PlannerError`, or a
run that ended failed); 4 empty feasible set.  A subcommand maps a failure
itself only where it differs: `feasibility`'s inputs (1), and a bundled
file that `figures` cannot load (3).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import analysis, scenario_io, sim, svgplot
from .errors import PlannerError, ScenarioFormatError, ScenarioValidationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUN_FAILURE = 3
EXIT_EMPTY_FEASIBLE = 4

# the bundled scenario files of the source checkout; `figures` renders them
SCENARIOS_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "scenarios")
)


class _Parser(argparse.ArgumentParser):
    """argparse reports usage errors with exit code 2; we reserve 2 for
    scenario validation, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _metrics_lines(record: sim.RunRecord) -> list[str]:
    lines = [f"completed = {record.completed}"]
    if record.failure_reason:
        lines.append(f"failure_reason = {record.failure_reason}")
    for name, value in zip(record.metrics._fields, record.metrics):
        lines.append(f"{name} = {value}")
    return lines


def _scenario_stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def cmd_run(args) -> int:
    scenario, emit_svg = scenario_io.load(args.scenario, args.set or [])
    stem = _scenario_stem(args.scenario)
    os.makedirs(args.out, exist_ok=True)
    record = sim.run(scenario)
    sim.write_csv(os.path.join(args.out, f"{stem}.csv"), record.samples)
    metrics = "\n".join(_metrics_lines(record)) + "\n"
    with open(os.path.join(args.out, f"{stem}_metrics.txt"), "w", encoding="utf-8") as fh:
        fh.write(metrics)
    if emit_svg and record.samples:
        series = [(stem, [(s.t, s.d_lateral) for s in record.samples])]
        svg = svgplot.line_chart(series, stem, "t [s]", "lateral deviation [m]")
        with open(os.path.join(args.out, f"{stem}.svg"), "w", encoding="utf-8") as fh:
            fh.write(svg)

    print(metrics, end="")
    if not record.completed:
        print(f"run failed: {record.failure_reason}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    return EXIT_OK


def _parse_grid(items: list[str]) -> dict[str, list[float]]:
    axes: dict[str, list[float]] = {}
    for item in items:
        if "=" not in item:
            raise ScenarioFormatError(
                f"grid axis {item!r} is not of the form key=v1,v2,..."
            )
        key, _, rest = item.partition("=")
        key = key.strip()
        if not key or key in axes:
            raise ScenarioFormatError(f"bad or duplicate grid axis {item!r}")
        values = [v.strip() for v in rest.split(",")]
        if not any(values):
            raise ScenarioFormatError(f"grid axis {item!r} has no values")
        # as --set rejects an empty value, not a point fewer
        if not all(values):
            raise ScenarioFormatError(f"grid axis {item!r} has an empty value")
        try:
            axes[key] = [float(v) for v in values]
        except ValueError:
            raise ScenarioFormatError(f"grid axis {item!r} has a non-numeric value")
    return axes


def cmd_sweep(args) -> int:
    axes = _parse_grid(args.grid)
    scenario, _ = scenario_io.load(args.scenario, args.set or [])
    results = sim.sweep(scenario, axes)
    keys = sorted(axes)
    path = os.path.join(args.out, f"{_scenario_stem(args.scenario)}_sweep.csv")
    completed = []
    os.makedirs(args.out, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([*keys, *sim.RunMetrics._fields, "completed"]) + "\n")
        for overrides, record in results:
            row = [str(overrides[k]) for k in keys]
            row += map(str, record.metrics)
            row.append(str(record.completed))
            fh.write(",".join(row) + "\n")
            completed.append(record.completed)
    print(f"wrote {len(completed)} rows to {path}")
    if not all(completed):
        return EXIT_RUN_FAILURE
    return EXIT_OK


def _report_lines(report: analysis.FeasibilityReport) -> list[str]:
    p = report.params
    lines = [
        "SET "
        f"k={p.k!r} lambda0={p.lambda0!r} gamma={p.gamma!r} lam={p.lam!r} "
        f"delta_d0={p.delta_d0!r} alpha={p.alpha!r} "
        f"ratio={report.predicted_curvature_ratio!r}"
    ]
    for check in report.checks:
        if not check.rows:
            lines.append(f"  {check.name}: not applicable")
            continue
        for row in check.rows:
            verdict = "PASS" if row.satisfied else "FAIL"
            lines.append(
                f"  {check.name}.{row.name}: {row.lhs!r} {row.comparator} "
                f"{row.rhs!r} {verdict}"
            )
    return lines


def cmd_feasibility(args) -> int:
    try:
        axes = _parse_grid(args.grid)
        for name in ("gamma", "lambda0", "k"):
            if name not in axes:
                raise ValueError(f"missing grid axis {name!r}")
        unknown = set(axes) - {"gamma", "lambda0", "k"}
        if unknown:
            raise ValueError(f"unknown grid axes {sorted(unknown)}")
        reports = analysis.find_feasible(
            v=args.v,
            lane_width=args.lane_width,
            kappa0=args.kappa0,
            c1=args.c1,
            c2=args.c2,
            c3=args.c3,
            gamma_grid=axes["gamma"],
            lambda0_grid=axes["lambda0"],
            k_grid=axes["k"],
            alpha=args.alpha,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for report in reports:
        for line in _report_lines(report):
            print(line)
    print(f"feasible sets: {len(reports)}")
    if not reports:
        return EXIT_EMPTY_FEASIBLE
    return EXIT_OK


def cmd_figures(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    records = []
    for stem in (
        "lane_change_k05",
        "lane_change_k10",
        "lane_change_k15",
        "corner_twopoint",
    ):
        # a bundled file that cannot be loaded is the checkout's fault, not
        # the arguments': a run failure, whatever the error
        try:
            scenario, _ = scenario_io.load(
                os.path.join(SCENARIOS_DIR, f"{stem}.scenario")
            )
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RUN_FAILURE
        except PlannerError as exc:
            print(f"run failed: {exc}", file=sys.stderr)
            return EXIT_RUN_FAILURE
        record = sim.run(scenario)
        if not record.completed:
            print(f"run failed: {record.failure_reason}", file=sys.stderr)
            return EXIT_RUN_FAILURE
        records.append(record)
    *lane_changes, two_point = records
    lateral_series, rate_series = [], []
    for record in lane_changes:
        label = f"k={record.scenario.params.k:g}"
        # plot the offset from the original lane, matching a lane at y=0
        lateral_series.append((label, [(s.t, s.y) for s in record.samples]))
        rate_series.append(
            (label, [(s.t, s.d_lateral_rate) for s in record.samples])
        )
    track = two_point.scenario.track.line()
    last_station = two_point.samples[-1].t * two_point.scenario.params.v_s
    n = 400
    arc_pts = [track.point_at(last_station * i / n).position for i in range(n + 1)]
    path_pts = [(s.x, s.y) for s in two_point.samples]

    outputs = {
        "lane_change_lateral.svg": svgplot.line_chart(
            lateral_series,
            "Lane change: lateral position",
            "t [s]",
            "y [m]",
        ),
        "lane_change_lateral_rate.svg": svgplot.line_chart(
            rate_series,
            "Lane change: lateral deviation rate",
            "t [s]",
            "dy/dt [m/s]",
        ),
        "corner_path.svg": svgplot.line_chart(
            [("lane center", arc_pts), ("vehicle path", path_pts)],
            "Corner tracking: vehicle path vs lane",
            "x [m]",
            "y [m]",
        ),
    }
    for name, svg in outputs.items():
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            fh.write(svg)
    print(f"wrote {len(outputs)} figures to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lanesteer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario file")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="metrics over a parameter grid")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p_sweep.add_argument("--grid", action="append", required=True,
                         metavar="KEY=V1,V2,...")
    p_sweep.add_argument("--out", default="out")
    p_sweep.set_defaults(func=cmd_sweep)

    p_feas = sub.add_parser("feasibility", help="search the parameter space")
    p_feas.add_argument("--v", type=float, required=True)
    p_feas.add_argument("--lane-width", type=float, required=True)
    p_feas.add_argument(
        "--kappa0", type=float, required=True,
        help="corner curvature (1/m); write a negative one in exponent "
        "form as --kappa0=-1e-2, since -1e-2 alone reads as a flag",
    )
    p_feas.add_argument("--c1", type=float, default=math.inf)
    p_feas.add_argument("--c2", type=float, default=math.inf)
    p_feas.add_argument("--c3", type=float, default=math.inf)
    p_feas.add_argument("--alpha", type=float, default=0.5)
    p_feas.add_argument("--grid", action="append", required=True,
                        metavar="KEY=V1,V2,...")
    p_feas.set_defaults(func=cmd_feasibility)

    p_fig = sub.add_parser("figures", help="emit the demonstration plots")
    p_fig.add_argument("--out", required=True)
    p_fig.set_defaults(func=cmd_figures)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # inside the guard: piped output is buffered, so a closed pipe may
        # show only when the last of it is written
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`lanesteer ... | head -1`): point stdout
        # at devnull, so that the interpreter's flush of what is still
        # buffered at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except ScenarioValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, ScenarioFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PlannerError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE


if __name__ == "__main__":
    sys.exit(main())
