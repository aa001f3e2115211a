import ast
import errno
import glob
import importlib.metadata
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import lanesteer
from lanesteer import cli, sim

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "feasibility_fixture.json")
PYPROJECT = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")


def _lanesteer_distribution():
    """The installed lanesteer distribution, or None when it is not installed."""
    try:
        return importlib.metadata.distribution("lanesteer")
    except importlib.metadata.PackageNotFoundError:
        return None


def scenario_path(name):
    return os.path.join(cli.SCENARIOS_DIR, name)


def run_cli(args):
    return cli.main(args)


class TestRun:
    def test_bundled_lane_change_converges(self, tmp_path, read_samples):
        out = str(tmp_path / "o")
        code = run_cli([
            "run", "--scenario", scenario_path("lane_change_k05.scenario"),
            "--out", out,
        ])
        assert code == 0
        rows = read_samples(os.path.join(out, "lane_change_k05.csv"))
        # lateral position relative to the original lane after the change
        assert rows[-1].y == pytest.approx(3.5, abs=0.035)
        assert os.path.exists(os.path.join(out, "lane_change_k05_metrics.txt"))
        assert os.path.exists(os.path.join(out, "lane_change_k05.svg"))

    def test_missing_file_is_usage_error(self, tmp_path):
        code = run_cli([
            "run", "--scenario", str(tmp_path / "nope.scenario"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1

    def test_missing_key_is_validation_error(self, tmp_path, capsys):
        src = scenario_path("lane_change_k10.scenario")
        broken = tmp_path / "broken.scenario"
        text = Path(src).read_text().replace("duration_s = 10.0\n", "")
        broken.write_text(text)
        out = tmp_path / "o"
        code = run_cli(["run", "--scenario", str(broken), "--out", str(out)])
        assert code == 2
        assert "duration_s" in capsys.readouterr().err
        # no output files on validation failure
        assert not out.exists()

    def test_collapsing_lane_change_offset_is_validation_error(self, tmp_path, capsys):
        # a 3.5 m offset toward the center of a 2 m-radius arc has no parallel
        src = scenario_path("lane_change_k10.scenario")
        bad = tmp_path / "collapse.scenario"
        text = Path(src).read_text().replace(
            "segment = line 200.0\n", "segment = line 5.0\nsegment = arc 20.0 0.5\n"
        )
        bad.write_text(text)
        out = tmp_path / "o"
        code = run_cli(["run", "--scenario", str(bad), "--out", str(out)])
        assert code == 2
        assert "collapses" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_lane_change_offset_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli([
            "run", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--set", "sim.lane_change_offset_m=nan", "--out", str(out),
        ])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("how", ["file", "set", "grid"])
    def test_control_period_longer_than_run_is_validation_error(
        self, tmp_path, capsys, how
    ):
        src = scenario_path("lane_change_k10.scenario")
        if how == "file":
            bad = tmp_path / "long_period.scenario"
            bad.write_text(Path(src).read_text().replace("h_s = 0.001\n", "h_s = 1.5\n"))
            args = ["run", "--scenario", str(bad)]
        elif how == "set":
            args = ["run", "--scenario", src, "--set", "sim.h_s=20"]
        else:
            args = ["sweep", "--scenario", src, "--grid", "sim.h_s=0.001,1.5"]
        out = tmp_path / "o"
        assert run_cli([*args, "--out", str(out)]) == 2
        assert "control period" in capsys.readouterr().err
        assert not out.exists()

    def test_override_k_oscillates(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        code = run_cli([
            "run", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--set", "planner.k_per_m=1.5", "--out", out,
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        line = next(
            l for l in stdout.splitlines()
            if l.startswith("lateral_rate_sign_changes")
        )
        assert int(line.split("=")[1]) >= 1

    def test_run_failure_exit_code(self, tmp_path):
        # shrink the track so the run falls off the end
        code = run_cli([
            "run", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--set", "sim.duration_s=500.0",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 3


    @pytest.mark.parametrize("overrides, error", [
        (["sim.lane_change_offset_m=5.8e117"], "GeometryDegenerateError"),
        (["planner.k_per_m=1.4e235", "sim.lane_change_offset_m=5.8e117"],
         "NumericBlowupError"),
    ], ids=["huge_offset", "infinite_command"])
    def test_huge_offset_fails_typed_without_hanging(self, tmp_path, overrides, error):
        # the chart of a lateral deviation flat to a few ulps at 5.8e117 once
        # looped forever on its ticks: a subprocess with a timeout turns such
        # a hang into a failure
        src = os.path.dirname(os.path.dirname(lanesteer.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        args = [
            sys.executable, "-c",
            "import sys; from lanesteer.cli import main; sys.exit(main(sys.argv[1:]))",
            "run", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--out", str(tmp_path),
        ]
        for item in overrides:
            args += ["--set", item]
        proc = subprocess.run(args, capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 3
        assert f"run failed: {error}" in proc.stderr

class TestSweep:
    def test_k_sweep_writes_rows(self, tmp_path):
        out = str(tmp_path / "o")
        code = run_cli([
            "sweep", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--grid", "planner.k_per_m=0.5,1.0,1.5", "--out", out,
        ])
        assert code == 0
        path = os.path.join(out, "lane_change_k10_sweep.csv")
        lines = Path(path).read_text().strip().splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        sign_idx = header.index("lateral_rate_sign_changes")
        k_idx = header.index("planner.k_per_m")
        by_k = {
            float(l.split(",")[k_idx]): int(l.split(",")[sign_idx])
            for l in lines[1:]
        }
        assert by_k[0.5] == 0
        assert by_k[1.5] >= 1

    def test_duplicate_axis_values_rejected(self, tmp_path):
        code = run_cli([
            "sweep", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--grid", "planner.k_per_m=0.5,0.5",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_nan_grid_value_is_validation_error(self, tmp_path):
        code = run_cli([
            "sweep", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--grid", "vehicle.u_max_rad_per_s=nan",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_unknown_grid_key_message_is_unquoted(self, tmp_path, capsys):
        # the same wording as --set, which has no quotes around the message
        code = run_cli([
            "sweep", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--grid", "planner.bogus=1",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "validation error: unknown planner parameter 'bogus'\n"

    def test_safety_limit_is_not_a_grid_key(self, tmp_path, capsys):
        code = run_cli([
            "sweep", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--grid", "planner.c3_m=1",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "validation error: unknown planner parameter 'c3_m'\n"

    def test_invalid_grid_value_message_names_the_point(self, tmp_path, capsys):
        code = run_cli([
            "sweep", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--grid", "planner.k_per_m=0.5,-1",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            "validation error: planner.k_per_m = -1.0: "
            "k must be positive and finite\n"
        )

    @pytest.mark.parametrize("value", ["inf", "2.5"])
    def test_non_integral_control_divisor_grid_is_validation_error(self, tmp_path, value):
        # --set sim.control_divisor=2.5 is a validation error as well
        code = run_cli([
            "sweep", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--grid", f"sim.control_divisor={value}",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_bad_grid_is_usage_error(self, tmp_path):
        code = run_cli([
            "sweep", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--grid", "planner.k_per_m=abc",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1


class TestOutputDirectory:
    """An --out that cannot be created is an error message and exit 1, for
    run, sweep and figures alike, not a traceback, and before any
    simulation."""

    SCENARIO = ["--scenario", scenario_path("lane_change_k10.scenario"),
                "--set", "sim.duration_s=0.5"]
    COMMANDS = {
        "run": ["run", *SCENARIO],
        "sweep": ["sweep", "--grid", "planner.k_per_m=0.5", *SCENARIO],
        "figures": ["figures"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("kind", ["existing_file", "empty"])
    def test_unusable_out_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                         command, kind):
        monkeypatch.chdir(tmp_path)
        if kind == "existing_file":
            (tmp_path / "afile").write_text("")
            out = "afile"
        else:
            out = ""

        def no_run(scenario):
            raise AssertionError("simulated before creating --out")

        monkeypatch.setattr(sim, "run", no_run)
        code = run_cli([*self.COMMANDS[command], "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert os.listdir(tmp_path) == (["afile"] if kind == "existing_file" else [])


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: `write` or `flush`, as chosen, raises
    BrokenPipeError.  fileno() is a file of the test's own, which main may
    re-point without touching the real stdout."""

    def __init__(self, fd, failing):
        self._fd, self._failing = fd, failing

    def writable(self):
        return True

    def write(self, text):
        if self._failing == "write":
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        return len(text)

    def flush(self):
        if self._failing == "flush":
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def fileno(self):
        return self._fd


class TestClosedStdout:
    """A reader that closes stdout early (`lanesteer ... | head -1`) ends the
    command with exit 1 and no traceback, whichever subcommand printed."""

    COMMANDS = {
        "run": ["run", "--scenario", scenario_path("lane_change_k10.scenario"),
                "--set", "sim.duration_s=0.5"],
        "sweep": ["sweep", "--scenario", scenario_path("lane_change_k10.scenario"),
                  "--set", "sim.duration_s=0.5", "--grid", "planner.k_per_m=0.5,0.6"],
        "feasibility": ["feasibility", "--v", "1", "--lane-width", "3.5",
                        "--kappa0", "0.01", "--c1", "0.3", "--c2", "0.3", "--c3", "1.0",
                        "--grid", "gamma=0.992,0.995", "--grid", "lambda0=0.35,0.5",
                        "--grid", "k=0.11,0.12"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_closed_stdout_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                          command, failing):
        argv = self.COMMANDS[command]
        if command != "feasibility":
            argv = [*argv, "--out", str(tmp_path / "o")]
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd, failing))
            code = run_cli(argv)
            redirected, devnull = os.fstat(fd), os.stat(os.devnull)
        finally:
            os.close(fd)
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == ""
        # what is still buffered goes to devnull when the interpreter exits
        assert (redirected.st_dev, redirected.st_ino) == (devnull.st_dev, devnull.st_ino)


class TestFeasibility:
    def test_relaxed_limits_nonempty(self, capsys):
        code = run_cli([
            "feasibility", "--v", "1", "--lane-width", "3.5", "--kappa0", "0",
            "--grid", "gamma=0.7,0.9", "--grid", "lambda0=0.5",
            "--grid", "k=0.1,0.2",
        ])
        assert code == 0
        assert "feasible sets: 4" in capsys.readouterr().out

    def test_gamma_below_golden_ratio_empty(self, capsys):
        code = run_cli([
            "feasibility", "--v", "1", "--lane-width", "3.5", "--kappa0", "0.01",
            "--grid", "gamma=0.3,0.5,0.6", "--grid", "lambda0=0.5",
            "--grid", "k=0.1,0.12",
        ])
        assert code == 4
        assert "feasible sets: 0" in capsys.readouterr().out

    def test_matches_committed_fixture(self, capsys):
        with open(FIXTURE) as fh:
            fx = json.load(fh)
        inp = fx["inputs"]
        args = [
            "feasibility",
            "--v", str(inp["v"]), "--lane-width", str(inp["lane_width"]),
            "--kappa0", str(inp["kappa0"]), "--c1", str(inp["c1"]),
            "--c2", str(inp["c2"]), "--c3", str(inp["c3"]),
            "--alpha", str(inp["alpha"]),
            "--grid", "gamma=" + ",".join(map(str, inp["gamma_grid"])),
            "--grid", "lambda0=" + ",".join(map(str, inp["lambda0_grid"])),
            "--grid", "k=" + ",".join(map(str, inp["k_grid"])),
        ]
        code = run_cli(args)
        assert code == 0
        sets = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("SET ")
        ]
        assert len(sets) == len(fx["feasible"])
        for line, row in zip(sets, fx["feasible"]):
            fields = dict(
                item.split("=") for item in line[len("SET "):].split()
            )
            for key in ("gamma", "lambda0", "k"):
                assert float(fields[key]) == pytest.approx(row[key], abs=1e-12)
            assert float(fields["ratio"]) == pytest.approx(
                row["predicted_ratio"], abs=1e-12
            )

    @pytest.mark.parametrize("args, message", [
        (["--kappa0", "nan"], "kappa0 must be finite"),
        (["--kappa0", "0", "--c1", "-1"], "safety bounds must be positive"),
        (["--kappa0", "0", "--v", "inf"], "v and lane width must be positive"),
    ])
    def test_bad_input_is_usage_error(self, capsys, args, message):
        code = run_cli([
            "feasibility", "--v", "1", "--lane-width", "3.5", *args,
            "--grid", "gamma=0.9", "--grid", "lambda0=0.5", "--grid", "k=0.1",
        ])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_missing_axis_is_usage_error(self):
        code = run_cli([
            "feasibility", "--v", "1", "--lane-width", "3.5", "--kappa0", "0",
            "--grid", "gamma=0.7",
        ])
        assert code == 1


class TestFigures:
    def test_outputs_and_determinism(self, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run_cli(["figures", "--out", out_a]) == 0
        assert run_cli(["figures", "--out", out_b]) == 0
        names = [
            "lane_change_lateral.svg",
            "lane_change_lateral_rate.svg",
            "corner_path.svg",
        ]
        for name in names:
            a = Path(out_a, name).read_bytes()
            b = Path(out_b, name).read_bytes()
            assert a == b
            assert a.startswith(b"<svg")

    def test_unwritable_figure_is_usage_error(self, tmp_path, capsys):
        # --out exists, but a directory takes the place of one figure
        (tmp_path / "corner_path.svg").mkdir()
        assert run_cli(["figures", "--out", str(tmp_path)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_bundled_scenario_is_run_failure(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "SCENARIOS_DIR", str(tmp_path / "none"))
        code = run_cli(["figures", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_RUN_FAILURE
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("old, new, message", [
        # the file parses, but the scenario is invalid
        ("duration_s = 12.0\n", "duration_s = -1\n",
         "run failed: [sim]: duration must be positive and finite\n"),
        # the file does not parse
        ("duration_s = 12.0\n", "duration_s 12.0\n", "run failed: "),
    ], ids=["invalid", "unparsable"])
    def test_unusable_bundled_scenario_is_run_failure(
        self, tmp_path, monkeypatch, capsys, old, new, message
    ):
        # the checkout's fault, not the arguments': exit 3, not 1 or 2
        bundled = tmp_path / "scenarios"
        shutil.copytree(cli.SCENARIOS_DIR, bundled)
        path = bundled / "lane_change_k05.scenario"
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        monkeypatch.setattr(cli, "SCENARIOS_DIR", str(bundled))
        code = run_cli(["figures", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_RUN_FAILURE
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert not (tmp_path / "o" / "lane_change_lateral.svg").exists()

    def test_series_labels_present(self, tmp_path):
        out = str(tmp_path / "o")
        assert run_cli(["figures", "--out", out]) == 0
        rate_svg = Path(out, "lane_change_lateral_rate.svg").read_text()
        for label in ("k=0.5", "k=1", "k=1.5"):
            assert label in rate_svg
        corner = Path(out, "corner_path.svg").read_text()
        assert "lane center" in corner and "vehicle path" in corner


class TestUsage:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["explode"])
        assert exc.value.code == 1

    @pytest.mark.skipif(
        _lanesteer_distribution() is None,
        reason="no installed lanesteer distribution found by importlib.metadata",
    )
    def test_console_script_installed(self):
        assert shutil.which("lanesteer") is not None
        scripts = _lanesteer_distribution().entry_points.select(
            group="console_scripts", name="lanesteer"
        )
        assert [ep.value for ep in scripts] == ["lanesteer.cli:main"]

    def test_console_script_declared(self):
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"lanesteer": "lanesteer.cli:main"}
        module, _, attr = scripts["lanesteer"].partition(":")
        assert callable(getattr(importlib.import_module(module), attr))

    def test_runtime_imports_only_the_standard_library(self):
        # pyproject.toml declares `dependencies = []`
        sources = glob.glob(os.path.join(os.path.dirname(cli.__file__), "*.py"))
        assert sources
        for path in sources:
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    top = name.partition(".")[0]
                    assert top in sys.stdlib_module_names, (path, name)
