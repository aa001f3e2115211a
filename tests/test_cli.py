import ast
import errno
import glob
import hashlib
import importlib.metadata
import io
import json
import math
import os
import shutil
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import pytest

import lanesteer
from lanesteer import cli, scenario_io, sim
from lanesteer.errors import NumericBlowupError, ScenarioFormatError
from test_acceptance import CSV_SHA256
from test_sim import JOINT_GRIDS

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


def package_env():
    """os.environ with this checkout's package first on PYTHONPATH, for a
    subprocess."""
    src = os.path.dirname(os.path.dirname(lanesteer.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))


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

    def test_svg_text_is_escaped(self, tmp_path):
        # the file's stem is the chart's title and series label
        src = tmp_path / "a&b<c.scenario"
        shutil.copy(scenario_path("lane_change_k10.scenario"), src)
        out = tmp_path / "o"
        assert run_cli(["run", "--scenario", str(src), "--out", str(out)]) == 0
        svg = xml.dom.minidom.parse(str(out / "a&b<c.svg"))
        texts = [node.firstChild.data for node in svg.getElementsByTagName("text")]
        assert texts.count("a&b<c") == 2

    def test_file_with_byte_order_mark_runs(self, tmp_path):
        # the mark once made the first line a key outside any [section]
        src = Path(scenario_path("lane_change_k10.scenario"))
        bom = tmp_path / "lane_change_k10.scenario"
        bom.write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
        out = tmp_path / "o"
        assert run_cli(["run", "--scenario", str(bom), "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "lane_change_k10.csv").read_bytes()).hexdigest()
        assert digest == CSV_SHA256["lane_change_k10"]

    def test_file_not_utf8_is_usage_error(self, tmp_path, capsys):
        src = Path(scenario_path("lane_change_k10.scenario"))
        bad = tmp_path / "latin1.scenario"
        bad.write_bytes(b"# caf\xe9\n" + src.read_bytes())
        out = tmp_path / "o"
        assert run_cli(["run", "--scenario", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not UTF-8 text: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_no_file_is_opened_without_an_encoding(self, tmp_path):
        # every text file the package opens names its encoding, so that
        # -X warn_default_encoding finds none, SVG and sweep CSV included
        for args in (["run"], ["sweep", "--grid", "planner.k_per_m=0.5,1"]):
            proc = subprocess.run(
                [sys.executable, "-X", "warn_default_encoding",
                 "-W", "error::EncodingWarning", "-c",
                 "import sys; from lanesteer.cli import main; sys.exit(main(sys.argv[1:]))",
                 *args, "--scenario", scenario_path("lane_change_k10.scenario"),
                 "--out", str(tmp_path)],
                capture_output=True, text=True, env=package_env(), timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "lane_change_k10.svg").is_file()
        assert (tmp_path / "lane_change_k10_sweep.csv").is_file()

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

    @pytest.mark.parametrize("old, new, args, message", [
        ("k_per_m = 1.0\n", "k_per_m = -1.0\n",
         ["run", "--set", "planner.k_per_m=1.0"],
         "[planner]: k must be positive and finite"),
        ("h_s = 0.001\n", "h_s = 0.6\n", ["run", "--set", "sim.h_s=0.001"],
         "[sim]: duration must be a whole number of control periods "
         "control_divisor * h, with at most 10**8 RK4 steps in all"),
        ("k_per_m = 1.0\n", "k_per_m = -1.0\n",
         ["sweep", "--grid", "planner.k_per_m=1.0"],
         "[planner]: k must be positive and finite"),
    ], ids=["set_k", "set_h", "grid_k"])
    def test_override_cannot_mend_an_invalid_file(
        self, tmp_path, capsys, old, new, args, message
    ):
        # the file is checked on its own before any --set or --grid key
        text = Path(scenario_path("lane_change_k10.scenario")).read_text()
        assert old in text
        bad = tmp_path / "bad.scenario"
        bad.write_text(text.replace(old, new))
        out = tmp_path / "o"
        command, *rest = args
        code = run_cli([command, "--scenario", str(bad), *rest, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not out.exists()

    # (text replaced, replacement, exit code, first line of stderr); {where}
    # is the file and the line of the replacement's last line
    @pytest.mark.parametrize("old, new, code, message", [
        ("[planner]\n", "[ ]\n", 1, "error: {where}: empty section name"),
        ("[output]\n", "[vehicle]\n", 1, "error: {where}: duplicate section [vehicle]"),
        ("gain.\n", "gain.\nk = 1\n", 1, "error: {where}: key outside any [section]"),
        ("h_s = 0.001\n", "h_s =\n", 1, "error: {where}: empty key or value"),
        ("h_s = 0.001\n", "= 0.001\n", 1, "error: {where}: empty key or value"),
        ("h_s = 0.001\n", "h_s = 0.001\nh_s = 0.002\n", 1,
         "error: {where}: duplicate key 'h_s' in [sim]"),
        ("emit_svg = true", "emit_svg = maybe", 2,
         "validation error: [output] emit_svg = 'maybe': must be a boolean"),
        # a boolean is spelled true or false, in lower case
        ("emit_svg = true", "emit_svg = yes", 2,
         "validation error: [output] emit_svg = 'yes': must be a boolean"),
        ("emit_svg = true", "emit_svg = True", 2,
         "validation error: [output] emit_svg = 'True': must be a boolean"),
        ("segment = line 200.0", "segment = line", 2,
         "validation error: [track]: segment 'line': expected 'line <length_m>' "
         "or 'arc <length_m> <curvature_per_m>'"),
        ("segment = line 200.0", "segment = line abc", 2,
         "validation error: [track]: segment 'line abc': expected "
         "'line <length_m>' or 'arc <length_m> <curvature_per_m>'"),
        ("[output]\n", "[extra]\n", 2, "validation error: unknown section [extra]"),
        ("[planner]\nk_per_m = 1.0\nlambda_s2 = 1.0\nv_s_m_per_s = 1.0\n", "", 2,
         "validation error: missing section [planner]"),
    ])
    def test_malformed_file_is_rejected(self, tmp_path, capsys, old, new, code, message):
        text = Path(scenario_path("lane_change_k10.scenario")).read_text()
        assert old in text
        text = text.replace(old, new, 1)
        bad = tmp_path / "bad.scenario"
        bad.write_text(text)
        line = text[:text.rindex(new) + len(new.rstrip("\n"))].count("\n") + 1
        out = tmp_path / "o"
        assert run_cli(["run", "--scenario", str(bad), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.splitlines()[0] == message.format(where=f"{bad}:{line}")
        assert not out.exists()

    def test_planner_error_escaping_a_command_is_run_failure(
        self, tmp_path, monkeypatch, capsys
    ):
        # sim.run records the failures it detects, so main's own handler
        # maps whatever PlannerError still escapes a command
        def blowup(scenario):
            raise NumericBlowupError("integration produced a non-finite state")

        monkeypatch.setattr(sim, "run", blowup)
        code = run_cli([
            "run", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == cli.EXIT_RUN_FAILURE
        assert capsys.readouterr().err == (
            "run failed: integration produced a non-finite state\n")

    def test_repeated_set_key_is_usage_error(self, tmp_path, capsys):
        # the last item once silently won
        out = tmp_path / "o"
        code = run_cli([
            "run", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--set", "planner.k_per_m=0.5", "--set", "planner.k_per_m=1.5",
            "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: override 'planner.k_per_m=1.5': duplicate key 'k_per_m' "
            "in [planner]\n")
        assert not out.exists()

    @pytest.mark.parametrize("item, message", [
        ("sim.h_s", "override 'sim.h_s' is not of the form section.key=value"),
        ("h_s=0.001", "override 'h_s=0.001' is not of the form section.key=value"),
        (".h_s=0.001", "override '.h_s=0.001' has empty parts"),
        ("sim.=0.001", "override 'sim.=0.001' has empty parts"),
        ("sim.h_s=", "override 'sim.h_s=' has empty parts"),
    ])
    def test_malformed_set_is_usage_error(self, tmp_path, capsys, item, message):
        out = tmp_path / "o"
        code = run_cli([
            "run", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--set", item, "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[0] == f"error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("h", ["0.4", "0.6", "5e-324", "1e-300"])
    def test_duration_not_whole_periods_is_validation_error(
        self, tmp_path, capsys, h
    ):
        # a 4 s period stopped the 10 s run at t = 8 s and a 6 s one ran it
        # to t = 12 s; at 5e-324 the period count overflowed in the run;
        # 1e300 periods are whole, above 2**53, and ran until killed
        out = tmp_path / "o"
        code = run_cli([
            "run", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--set", "sim.lane_change_offset_m=0", "--set", f"sim.h_s={h}",
            "--out", str(out),
        ])
        assert code == 2
        assert "whole number of control periods" in capsys.readouterr().err
        assert not out.exists()

    def test_run_of_more_than_10_8_steps_is_rejected_at_once(self, tmp_path):
        # 10**12 RK4 steps validated and then ran for hours; a subprocess
        # with a timeout turns such a hang into a failure
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from lanesteer.cli import main; sys.exit(main(sys.argv[1:]))",
             "run", "--scenario", scenario_path("lane_change_k10.scenario"),
             "--set", "sim.h_s=1e-11", "--out", str(out)],
            capture_output=True, text=True, env=package_env(), timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            "validation error: sim.h_s = 1e-11: duration must be a whole number "
            "of control periods control_divisor * h, with at most 10**8 RK4 "
            "steps in all\n"
        )
        assert not out.exists()

    def test_one_control_period_is_the_whole_run(self, tmp_path, read_samples):
        out = tmp_path / "o"
        code = run_cli([
            "run", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--set", "sim.lane_change_offset_m=0", "--set", "sim.h_s=1.0",
            "--out", str(out),
        ])
        assert code == 0
        rows = read_samples(os.path.join(out, "lane_change_k10.csv"))
        assert [row.t for row in rows] == [0.0, 10.0]

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

    def test_run_failing_in_its_first_period(self, tmp_path, capsys):
        # the run starts 10 m before the line does, so it records no sample
        out = tmp_path / "o"
        code = run_cli([
            "run", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--set", "sim.initial_x_m=-10", "--out", str(out),
        ])
        assert code == cli.EXIT_RUN_FAILURE
        assert capsys.readouterr().err.startswith("run failed: StationRangeError: ")
        # the file sets emit_svg = true, but there is nothing to draw
        assert sorted(os.listdir(out)) == [
            "lane_change_k10.csv", "lane_change_k10_metrics.txt"]
        assert (out / "lane_change_k10.csv").read_bytes() == (
            ",".join(sim.Sample._fields) + "\r\n").encode()
        lines = (out / "lane_change_k10_metrics.txt").read_text().splitlines()
        values = dict(line.split(" = ", 1) for line in lines)
        assert values.pop("completed") == "False"
        assert values.pop("failure_reason").startswith("StationRangeError: ")
        assert values == {
            **dict.fromkeys(sim.RunMetrics._fields, "nan"),
            "lateral_rate_sign_changes": "0",
            "steady_converged": "False",
        }

    @pytest.mark.parametrize("drop_output", [False, True],
                             ids=["output_false", "no_output_section"])
    def test_set_emit_svg_true_draws_the_svg(self, tmp_path, drop_output):
        text = Path(scenario_path("corner_twopoint.scenario")).read_text()
        if drop_output:
            text = text.replace("[output]\nemit_svg = false\n", "")
        assert ("[output]" in text) != drop_output
        src = tmp_path / "corner.scenario"
        src.write_text(text)
        assert scenario_io.load(str(src))[1] is False
        out = tmp_path / "o"
        code = run_cli([
            "run", "--scenario", str(src), "--set", "sim.duration_s=1",
            "--set", "output.emit_svg=true", "--out", str(out),
        ])
        assert code == 0
        xml.dom.minidom.parse(str(out / "corner.svg"))


    @pytest.mark.parametrize("overrides, error", [
        (["sim.lane_change_offset_m=5.8e117"], "GeometryDegenerateError"),
        (["planner.k_per_m=1.4e235", "sim.lane_change_offset_m=5.8e117"],
         "NumericBlowupError"),
    ], ids=["huge_offset", "infinite_command"])
    def test_huge_offset_fails_typed_without_hanging(self, tmp_path, overrides, error):
        # the chart of a lateral deviation flat to a few ulps at 5.8e117 once
        # looped forever on its ticks: a subprocess with a timeout turns such
        # a hang into a failure
        args = [
            sys.executable, "-c",
            "import sys; from lanesteer.cli import main; sys.exit(main(sys.argv[1:]))",
            "run", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--out", str(tmp_path),
        ]
        for item in overrides:
            args += ["--set", item]
        proc = subprocess.run(args, capture_output=True, text=True, env=package_env(),
                              timeout=60)
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

    def test_initial_state_grid_matches_run(self, tmp_path):
        # the starting pose is a grid key, as it is a file and --set key;
        # each row reads as the metrics file of the same run
        out = tmp_path / "sweep"
        code = run_cli([
            "sweep", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--grid", "sim.initial_y_m=0,0.5", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "lane_change_k10_sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","), strict=True)) for line in lines[1:]]
        assert [row["sim.initial_y_m"] for row in rows] == ["0.0", "0.5"]
        for row in rows:
            value = row.pop("sim.initial_y_m")
            run_out = tmp_path / f"run_{value}"
            code = run_cli([
                "run", "--scenario", scenario_path("lane_change_k10.scenario"),
                "--set", f"sim.initial_y_m={value}", "--out", str(run_out),
            ])
            assert code == 0
            text = (run_out / "lane_change_k10_metrics.txt").read_text()
            assert dict(line.split(" = ") for line in text.splitlines()) == row
        assert rows[1]["peak_abs_dtheta"] == "0.7830025013171495"

    def test_nan_initial_state_grid_is_validation_error(self, tmp_path, capsys):
        code = run_cli([
            "sweep", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--grid", "sim.initial_x_m=nan",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            "validation error: sim.initial_x_m = nan: initial state must be finite\n"
        )

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

    def test_track_key_is_a_grid_key(self, tmp_path):
        # --grid takes the [track] start pose, as a file and --set do; the
        # track starts 5 m behind the vehicle, so that the turned one's
        # offset line does not start ahead of it
        out = tmp_path / "o"
        code = run_cli([
            "sweep", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--set", "track.start_x_m=-5",
            "--grid", "track.start_heading_rad=0,0.1", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "lane_change_k10_sweep.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == [
            "track.start_heading_rad", "0.0", "0.1"]
        assert lines[1].split(",")[1:] != lines[2].split(",")[1:]

    def test_track_start_grid_matches_run(self, tmp_path):
        # each row reads as the metrics file of the run with the same --set
        out = tmp_path / "sweep"
        code = run_cli([
            "sweep", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--grid", "track.start_x_m=-5,0", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "lane_change_k10_sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","), strict=True)) for line in lines[1:]]
        assert [row["track.start_x_m"] for row in rows] == ["-5.0", "0.0"]
        for row in rows:
            value = row.pop("track.start_x_m")
            run_out = tmp_path / f"run_{value}"
            code = run_cli([
                "run", "--scenario", scenario_path("lane_change_k10.scenario"),
                "--set", f"track.start_x_m={value}", "--out", str(run_out),
            ])
            assert code == 0
            text = (run_out / "lane_change_k10_metrics.txt").read_text()
            assert dict(line.split(" = ") for line in text.splitlines()) == row

    @pytest.mark.parametrize("grid, message", [
        ("track.segment=1", "validation error: track.segment = 1.0: "
                            "a segment is text, not a number\n"),
        ("output.emit_svg=0,1",
         "validation error: unknown override section 'output'\n"),
    ])
    def test_file_only_key_is_not_a_grid_key(self, tmp_path, capsys, grid, message):
        out = tmp_path / "o"
        code = run_cli([
            "sweep", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--grid", grid, "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == message
        assert not out.exists()

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

    @pytest.mark.parametrize("stem, axes", JOINT_GRIDS)
    def test_point_is_checked_as_a_file_is(self, tmp_path, monkeypatch, stem, axes):
        seen, real_run = [], sim.run
        monkeypatch.setattr(sim, "run", lambda sc: seen.append(sc) or real_run(sc))
        grid = [f"{key}={','.join(map(repr, values))}" for key, values in axes.items()]
        args = ["--scenario", scenario_path(f"{stem}.scenario")]
        for item in grid:
            args += ["--grid", item]
        assert run_cli(["sweep", *args, "--out", str(tmp_path / "o")]) == 0
        [scenario] = seen
        assert scenario == scenario_io.load(scenario_path(f"{stem}.scenario"), grid)[0]

    def test_rejected_point_message_names_every_key(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli([
            "sweep", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--grid", "sim.duration_s=5", "--grid", "sim.abort_time_s=7",
            "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "validation error: sim.abort_time_s = 7.0, sim.duration_s = 5.0: "
            "abort_time must lie in [0, duration)\n"
        )
        assert not out.exists()

    def test_failed_point_keeps_every_row(self, tmp_path):
        # the 30 s run leaves the 20 m track; the 5 s run before it and the
        # row of the failed run are both written
        out = tmp_path / "o"
        code = run_cli([
            "sweep", "--scenario", scenario_path("lane_change_k10.scenario"),
            "--set", "track.segment=line 20", "--grid", "sim.duration_s=5,30",
            "--out", str(out),
        ])
        assert code == 3
        lines = (out / "lane_change_k10_sweep.csv").read_text().splitlines()
        assert [line.split(",")[-1] for line in lines] == ["completed", "True", "False"]

    @pytest.mark.parametrize("grid, message", [
        (["planner.k_per_m"], "grid axis 'planner.k_per_m' is not of the form key=v1,v2,..."),
        (["planner.k_per_m=1", "planner.k_per_m=2"],
         "bad or duplicate grid axis 'planner.k_per_m=2'"),
        (["=1"], "bad or duplicate grid axis '=1'"),
        (["planner.k_per_m=,"], "grid axis 'planner.k_per_m=,' has no values"),
        (["planner.k_per_m=0.5,,1.0"],
         "grid axis 'planner.k_per_m=0.5,,1.0' has an empty value"),
        (["sim.h_s=0.001,"], "grid axis 'sim.h_s=0.001,' has an empty value"),
    ])
    def test_malformed_grid_is_usage_error(self, tmp_path, capsys, grid, message):
        args = ["sweep", "--scenario", scenario_path("lane_change_k10.scenario")]
        for item in grid:
            args += ["--grid", item]
        assert run_cli([*args, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines()[0] == f"error: {message}"

    def test_parse_grid_rejects_an_empty_value(self):
        for item in ("planner.k_per_m=0.5,,1.0", "sim.h_s=0.001,", "planner.k_per_m= ,1"):
            with pytest.raises(ScenarioFormatError, match="has an empty value"):
                cli._parse_grid([item])
        assert cli._parse_grid(["planner.k_per_m= 0.5 , 1.0"]) == {
            "planner.k_per_m": [0.5, 1.0]
        }

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

    def test_negative_exponent_kappa0_after_equals(self, capsys):
        # argparse takes "-1e-2" alone for a flag; after "=" it is the value
        grid = ["--grid", "gamma=0.995,0.7", "--grid", "lambda0=0.3,0.5",
                "--grid", "k=0.05,0.09,0.12"]
        outs = []
        for kappa0 in (["--kappa0=-1e-2"], ["--kappa0", "-0.01"]):
            code = run_cli(["feasibility", "--v", "1", "--lane-width", "3.5",
                            *kappa0, "--c1", "0.3", "--c2", "0.3", *grid])
            assert code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and "SET " in outs[0]

    @pytest.mark.parametrize("args, message", [
        (["--kappa0", "nan"], "kappa0 must be finite"),
        (["--kappa0", "0", "--c1", "-1"], "safety bounds must be positive"),
        (["--kappa0", "0", "--v", "inf"], "v and lane width must be positive"),
        (["--kappa0", "0", "--grid", "bogus=1"], "unknown grid axes ['bogus']"),
        (["--kappa0", "0", "--grid", "k=0.1,,0.2"], "grid axis 'k=0.1,,0.2' has an empty value"),
    ])
    def test_bad_input_is_usage_error(self, capsys, args, message):
        code = run_cli([
            "feasibility", "--v", "1", "--lane-width", "3.5", *args,
            "--grid", "gamma=0.9", "--grid", "lambda0=0.5", "--grid", "k=0.1",
        ])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_kappa0_squared_overflow_is_usage_error(self, capsys):
        # the one passing pair's ratio squares kappa0 = 6e226
        code = run_cli([
            "feasibility", "--v", "1.8022985722047018e-127",
            "--lane-width", "3.4232798493716525e+273",
            "--kappa0", "6.011951275447932e+226", "--c3", "9.53398376109886e+292",
            "--alpha", "0.4126804794224991",
            "--grid", "gamma=0.9992995365614711,0.9999999999999977",
            "--grid", "lambda0=0.19236025548177993,0.8347393285976465",
            "--grid", "k=5.935508918566723e+228,3.125672424541924e+222",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: speed-ratio denominator")
        assert "Traceback" not in err

    def test_missing_axis_is_usage_error(self):
        code = run_cli([
            "feasibility", "--v", "1", "--lane-width", "3.5", "--kappa0", "0",
            "--grid", "gamma=0.7",
        ])
        assert code == 1

    def test_help_gives_each_flag_its_unit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["feasibility", "--help"])
        assert exc.value.code == 0
        options = capsys.readouterr().out.split("options:", 1)[1]
        # each option's entry, from its flag to the next, wrapping undone
        entries = {}
        for entry in options.split("\n  -")[1:]:
            flag, *words = entry.split()
            entries["-" + flag] = " ".join(words)
        unbounded = "default inf: no bound"
        for flag, phrases in {
            "--v": ["(m/s)"], "--lane-width": ["(m)"], "--kappa0": ["(1/m)"],
            "--c1": ["(rad)", unbounded], "--c2": ["(rad/s)", unbounded],
            "--c3": ["(m)", unbounded], "--alpha": ["in (0, 1)"],
            "--grid": ["all required", "gamma, lambda0 and k (1/m)"],
        }.items():
            for phrase in phrases:
                assert phrase in entries[flag], (flag, phrase)


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
        # the file loads, but the run leaves the end of its 200 m line
        ("duration_s = 12.0\n", "duration_s = 500.0\n",
         "run failed: StationRangeError"),
    ], ids=["invalid", "unparsable", "run_ends_failed"])
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

    def test_every_public_name_is_used_in_the_package(self):
        # a module-level public function or class that no other statement of
        # the package names is called only from outside it, by tests at most;
        # so is a public method or property of a package class that no
        # statement of the package or of bench/lsbench.py reads as an
        # attribute, unless a base class defines it (_Parser.error overrides
        # argparse's, which is called through the base)
        defined, used, classes, read = [], {}, [], set()
        bench = os.path.join(os.path.dirname(PYPROJECT), "bench", "lsbench.py")
        with open(bench) as fh:
            read.update(node.attr for node in ast.walk(ast.parse(fh.read(), bench))
                        if isinstance(node, ast.Attribute))
        for path in glob.glob(os.path.join(os.path.dirname(cli.__file__), "*.py")):
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            module = importlib.import_module("lanesteer." + os.path.basename(path)[:-3])
            for statement in tree.body:
                if (isinstance(statement, (ast.FunctionDef, ast.ClassDef))
                        and not statement.name.startswith("_")):
                    defined.append((statement.name, statement))
                if isinstance(statement, ast.ClassDef):
                    classes.append((getattr(module, statement.name), statement))
                for node in ast.walk(statement):
                    if isinstance(node, ast.Name):
                        name = node.id
                    elif isinstance(node, ast.Attribute):
                        name = node.attr
                        read.add(name)
                    elif isinstance(node, ast.alias):
                        name = node.name
                    else:
                        continue
                    used.setdefault(name, []).append(statement)
        unused = sorted(
            name for name, statement in defined
            if all(s is statement for s in used.get(name, ()))
        )
        assert unused == []
        assert classes
        unused = sorted(
            f"{cls.__name__}.{f.name}" for cls, node in classes for f in node.body
            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
            and f.name not in read
            and not any(hasattr(base, f.name) for base in cls.__mro__[1:])
        )
        assert unused == []

    def test_no_module_level_name_is_bound_in_two_modules(self):
        # a name bound at module level in two modules is a copy or two
        # things under one name; one module binds it, the others import it
        modules = {}
        for path in glob.glob(os.path.join(os.path.dirname(cli.__file__), "*.py")):
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            for statement in tree.body:
                if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                    names = [statement.name]
                elif isinstance(statement, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    names = [node.id for node in ast.walk(statement)
                             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
                else:
                    continue
                for name in names:
                    modules.setdefault(name, set()).add(os.path.basename(path))
        assert len(modules) > 50
        assert {name: sorted(m) for name, m in modules.items() if len(m) > 1} == {}

    def test_import_leaves_out_dataclasses_and_inspect(self):
        # defining a dataclass or calling inspect.signature adds start-up
        # time to every command; the package needs neither.  Every module
        # the import loads is the package's or the standard library's
        code = ("import json, sys; before = set(sys.modules); import lanesteer.cli; "
                "print(json.dumps(sorted(set(sys.modules) - before)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=package_env(), timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        loaded = json.loads(proc.stdout)
        assert "lanesteer.cli" in loaded
        assert not {"dataclasses", "inspect"} & set(loaded)
        outside = [name for name in loaded if name.partition(".")[0] != "lanesteer"
                   and name.partition(".")[0] not in sys.stdlib_module_names]
        assert outside == []

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
