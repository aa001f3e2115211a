"""Tests of the benchmark itself, at tiny sizes.

No timing is asserted: these check that every workload runs, reports the
metrics BENCHMARK.json declares, catches a wrong output, and that the span
recorder's self times account for an op's wall time.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lsbench
from metronome import Metronome
from spans import SpanRecorder

BENCHMARK = json.loads((lsbench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    """Small set-up and grids, output under tmp_path, and the lanesteer
    modules other tests imported put back afterwards."""
    monkeypatch.setattr(lsbench, "SETUP_REPEATS", 2)
    # 10 values per axis reach every cell of the fixture's 10-cell gamma axis
    monkeypatch.setattr(lsbench, "GRID_AXIS", 10)
    monkeypatch.setattr(lsbench, "WORK_DIR", tmp_path / "work")
    saved = {n: m for n, m in sys.modules.items() if n.partition(".")[0] == "lanesteer"}
    yield
    for name in [n for n in sys.modules if n.partition(".")[0] == "lanesteer"]:
        del sys.modules[name]
    sys.modules.update(saved)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(lsbench.WORKLOADS))
def test_workload_runs_and_reports_declared_metrics(workload, trace):
    result = lsbench.run_workload(workload, seed=7, seconds=0.0, trace=trace)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: unit for name, (_, unit) in result["metrics"].items()
    }
    values = {name: value for name, (value, _) in result["metrics"].items()}
    if trace:
        assert (lsbench.WORK_DIR / f"trace_{workload}_seed7.json").is_file()
        if workload == "feasibility_grid":
            assert values["analysis.feasible_ratio"] > 0
        else:
            assert values["vehicle.step.calls"] > 0
            assert values["refline.project.calls"] > 0
    else:
        assert all(v > 0 for v in values.values())
    lines = lsbench.report_lines(result)
    for name in ("setup_s", "periods_per_s", "ops_per_s", "op_wall_s.p50",
                 "op_wall_s.p90", "op_cpu_s.p50", "feasibility_points_per_s",
                 "peak_rss_mb", "failed_frac"):
        assert trace or any(line.startswith(f"{name} = ") for line in lines)


def test_feasibility_grid_is_nonempty_for_every_seed():
    ls = lsbench.import_lanesteer()
    for seed in range(20):
        w = lsbench.FeasibilityGrid(ls, seed, "")
        assert w.check(0, w.op(0)) is not None


class PerturbedCorner(lsbench.CornerRun):
    """Writes the corner CSVs, then changes one value in one of them by 1e-9."""

    def op(self, i):
        result = super().op(i)
        path = Path(self.workdir, f"{result[-1][0]}.csv")
        lines = path.read_text().splitlines(keepends=True)
        row = lines[100].split(",")
        row[1] = repr(float(row[1]) + 1e-9)
        lines[100] = ",".join(row)
        path.write_text("".join(lines))
        return result


def test_perturbed_csv_value_fails_the_op(tmp_path):
    # the unperturbed op passes in test_workload_runs_and_reports_declared_metrics
    ls = lsbench.import_lanesteer()
    bad = lsbench.measure(PerturbedCorner(ls, 1, str(tmp_path)), Metronome(), 0.0)
    assert (bad.failed, len(bad.walls)) == (1, 1)


def test_self_times_account_for_op_wall_time(tmp_path):
    ls = lsbench.import_lanesteer()
    workload = lsbench.LaneChange(ls, 3, str(tmp_path))
    original_step = ls.vehicle.step
    recorder = SpanRecorder()
    with recorder.installed(lsbench.trace_targets(ls)):
        op = recorder.wrap("op", workload.op)
        t0 = time.perf_counter_ns()
        op(3)  # an aborted run: both target lines are used
        wall = time.perf_counter_ns() - t0
    assert ls.vehicle.step is original_step
    spans = recorder.fold()
    assert spans[0][0] == "op" and spans[0][3] == -1
    op_ns = recorder.total_ns["op"]
    # the op span's own self time is the part no layer span covers
    assert sum(recorder.self_ns.values()) == op_ns <= wall
    assert all(v >= 0 for v in recorder.self_ns.values())
    assert recorder.calls["vehicle.step"] == 10 * recorder.calls["control.plan_step"] - 10
    assert recorder.calls["sim.metrics_from_samples"] == 1


def test_exits_nonzero_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(lsbench.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(lsbench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "lane_change",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
