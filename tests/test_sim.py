import csv
import dataclasses
import math
import os

import pytest

from lanesteer import cli, scenario_io, sim
from lanesteer import control as ctl
from lanesteer import vehicle as veh
from lanesteer.control import ControlSample, PlannerParams
from lanesteer.errors import NumericBlowupError, StationRangeError
from lanesteer.refline import FramePoint, ReferenceLine, ShadowResult
from lanesteer.vehicle import VehicleGeometry, VehicleState

GEOM = VehicleGeometry(l_f=1.5, l_r=1.5)


def straight_track(length=200.0):
    return ReferenceLine.from_pieces(0.0, 0.0, 0.0, [("line", length)])


def lane_change_scenario(k=0.5, duration=10.0, offset=3.5, **kw):
    params = PlannerParams(k=k, lam=1.0)
    return sim.Scenario(
        track=straight_track(),
        geometry=GEOM,
        params=params,
        initial_state=VehicleState(0.0, 0.0, 0.0, 0.0),
        duration=duration,
        lane_change_offset=offset,
        **kw,
    )


def bundled(stem):
    scenario, _ = scenario_io.load(os.path.join(cli.SCENARIOS_DIR, f"{stem}.scenario"))
    return scenario


class TestScenarioValidation:
    def test_abort_needs_offset(self):
        with pytest.raises(ValueError, match="offset"):
            sim.Scenario(
                track=straight_track(),
                geometry=GEOM,
                params=PlannerParams(k=0.5, lam=1.0),
                initial_state=VehicleState(0, 0, 0, 0),
                duration=5.0,
                abort_time=2.0,
            )

    def test_abort_before_end(self):
        with pytest.raises(ValueError, match="abort_time"):
            lane_change_scenario(abort_time=10.0)

    def test_collapsing_offset_rejected_at_construction(self):
        # the offset line is built with the scenario, so a 3.5 m offset toward
        # the center of a 2 m-radius arc fails here rather than inside run
        track = ReferenceLine.from_pieces(
            0.0, 0.0, 0.0, [("line", 5.0), ("arc", 20.0, 0.5)]
        )
        with pytest.raises(ValueError, match="collapses"):
            sim.Scenario(
                track=track,
                geometry=GEOM,
                params=PlannerParams(k=0.5, lam=1.0),
                initial_state=VehicleState(0, 0, 0, 0),
                duration=5.0,
                lane_change_offset=3.5,
            )

    @pytest.mark.parametrize("divisor", [2.5, 10.0, 0])
    def test_control_divisor_must_be_a_positive_int(self, divisor):
        with pytest.raises(ValueError, match="control divisor"):
            lane_change_scenario(control_divisor=divisor)

    def test_control_period_longer_than_run_rejected(self):
        # round(10 / 200) is no period at all; a 15 s period overruns 10 s
        for h in (20.0, 1.5):
            with pytest.raises(ValueError, match="control period"):
                lane_change_scenario(h=h)
        assert lane_change_scenario(h=1.0).h == 1.0  # one period, the duration

    def test_target_swaps_at_abort(self):
        sc = lane_change_scenario(abort_time=2.0)
        before = sc.target_at(1.9).point_at(0.0).position
        after = sc.target_at(2.0).point_at(0.0).position
        assert before == pytest.approx((0.0, 3.5))
        assert after == pytest.approx((0.0, 0.0))


class TestRun:
    @pytest.mark.parametrize("name", PlannerParams._fields)
    def test_every_planner_field_reaches_the_run(self, name):
        base = dataclasses.replace(bundled("corner_twopoint"), duration=20.0)
        params = base.params
        changed = params._replace(**{name: 1.1 * getattr(params, name)})
        samples = sim.run(base).samples
        assert sim.run(dataclasses.replace(base, params=changed)).samples != samples

    def test_equilibrium_stays_on_line(self):
        sc = lane_change_scenario(offset=None)
        record = sim.run(sc)
        assert record.completed
        assert all(abs(s.d_lateral) < 1e-12 for s in record.samples)
        assert record.metrics.final_lateral == pytest.approx(0.0, abs=1e-12)
        assert record.metrics.lateral_rate_sign_changes == 0
        assert record.metrics.saturation_fraction == 0.0

    def test_lane_change_converges(self):
        record = sim.run(lane_change_scenario(k=1.0))
        assert record.completed
        assert record.metrics.final_lateral == pytest.approx(3.5, abs=0.05)

    def test_initial_error_is_k_times_width(self):
        record = sim.run(lane_change_scenario(k=0.5))
        assert record.samples[0].e == pytest.approx(-0.5 * 3.5)

    def test_sample_spacing_is_control_period(self):
        sc = lane_change_scenario(duration=2.0)
        record = sim.run(sc)
        ts = [s.t for s in record.samples]
        period = sc.control_divisor * sc.h
        assert len(ts) == round(sc.duration / period) + 1
        for a, b in zip(ts, ts[1:]):
            assert b - a == pytest.approx(period)

    def test_determinism(self):
        sc = lane_change_scenario(duration=3.0)
        a, b = sim.run(sc), sim.run(sc)
        assert a.samples == b.samples
        assert a.metrics == b.metrics

    def test_lateral_rate_kinematics(self):
        record = sim.run(lane_change_scenario(duration=5.0))
        for s in record.samples:
            dtheta = s.theta_v - s.theta_n
            assert s.d_lateral_rate == pytest.approx(
                -s.v * math.sin(dtheta), abs=1e-6
            )

    def test_failure_recorded_not_raised(self):
        # track too short: the vehicle runs off the end mid-run
        params = PlannerParams(k=0.5, lam=1.0)
        sc = sim.Scenario(
            track=straight_track(3.0),
            geometry=GEOM,
            params=params,
            initial_state=VehicleState(0.0, 0.0, 0.0, 0.0),
            duration=20.0,
        )
        record = sim.run(sc)
        assert not record.completed
        assert "StationRangeError" in record.failure_reason
        assert record.samples  # partial record preserved


    def test_final_projection_failure_recorded_not_raised(self, monkeypatch):
        # a lane change projects onto its target line, a different line from
        # the track, so every period runs; only the last sample's projection
        # onto the track, for final_lateral, fails
        sc = lane_change_scenario(duration=1.0)
        assert sc.target_at(0.0) is not sc.track

        def outside(position):
            raise StationRangeError("injected")

        monkeypatch.setattr(sc.track, "project", outside)
        record = sim.run(sc)
        assert not record.completed
        assert record.failure_reason == "StationRangeError: injected"
        assert len(record.samples) == 101  # every period ran
        assert math.isnan(record.metrics.final_lateral)

    def test_far_target_ends_at_its_line_end(self, tmp_path):
        # k * lateral stays small at a 1e12 m offset, so the vehicle drives
        # straight on; the projection onto the target line fails once it
        # passes the 10 m line's end, however far the line is
        path = os.path.join(cli.SCENARIOS_DIR, "lane_change_k10.scenario")
        overrides = ["planner.k_per_m=1e-15", "sim.lane_change_offset_m=1e12",
                     "sim.duration_s=20", "track.segment=line 10"]
        scenario, _ = scenario_io.load(path, overrides)
        record = sim.run(scenario)
        assert not record.completed
        assert record.failure_reason.startswith("StationRangeError")
        assert len(record.samples) == 1001
        assert record.samples[-1].t == pytest.approx(10.0)
        args = ["run", "--scenario", path, "--out", str(tmp_path)]
        for item in overrides:
            args += ["--set", item]
        assert cli.main(args) == 3
        metrics = (tmp_path / "lane_change_k10_metrics.txt").read_text()
        assert "completed = False" in metrics
        assert "failure_reason = StationRangeError" in metrics

    def test_far_target_stops_steering_at_its_line_end(self):
        # the same on the bundled 200 m line: the run stops there, 50 s
        # before its end, and does not steer on toward x = 250 m
        scenario, _ = scenario_io.load(
            os.path.join(cli.SCENARIOS_DIR, "lane_change_k10.scenario"),
            ["planner.k_per_m=1e-15", "sim.lane_change_offset_m=1e12",
             "sim.duration_s=250"],
        )
        record = sim.run(scenario)
        assert record.failure_reason.startswith("StationRangeError")
        assert len(record.samples) == 20001
        last = record.samples[-1]
        assert last.t == pytest.approx(200.0)
        assert last.x == pytest.approx(200.0, abs=1e-6)

    def test_integration_failure_recorded_not_raised(self, monkeypatch):
        sc = lane_change_scenario(duration=1.0)
        real_step = veh.step
        calls = []

        def step_failing_in_second_period(*args):
            calls.append(args)
            if len(calls) > sc.control_divisor:
                raise NumericBlowupError("injected")
            return real_step(*args)

        monkeypatch.setattr("lanesteer.vehicle.step", step_failing_in_second_period)
        record = sim.run(sc)
        assert not record.completed
        assert record.failure_reason.startswith("NumericBlowupError")
        # the sample taken at the start of the failed period is kept
        period = sc.control_divisor * sc.h
        assert [s.t for s in record.samples] == [0.0, period]

    def test_overflowed_heading_recorded_as_numeric_blowup(self, tmp_path):
        # v_s / l_r overflows and vehicle.step takes cos of an infinite stage
        # heading
        path = os.path.join(cli.SCENARIOS_DIR, "lane_change_k10.scenario")
        overrides = ["planner.v_s_m_per_s=1e307", "vehicle.l_r_m=0.01",
                     "sim.initial_delta_rad=0.1"]
        scenario, _ = scenario_io.load(path, overrides)
        record = sim.run(scenario)
        assert record.failure_reason.startswith("NumericBlowupError")
        args = ["run", "--scenario", path, "--out", str(tmp_path)]
        for item in overrides:
            args += ["--set", item]
        assert cli.main(args) == 3

    @pytest.mark.parametrize("overrides", [
        # g * sqrt(lam) underflows to 0 although the axle ratio is positive
        ["vehicle.l_f_m=1e10", "vehicle.l_r_m=1e-300", "planner.lambda_s2=1e-300"],
        # kappa_e = (...) / v overflows on a subnormal speed plan
        ["planner.v_s_m_per_s=5e-324"],
        # k * lateral overflows, and the clamp would hide the infinite command
        ["planner.k_per_m=1.4e235", "sim.lane_change_offset_m=5.8e117"],
    ], ids=["zero_divisor", "subnormal_speed", "infinite_command"])
    def test_non_finite_command_recorded_as_numeric_blowup(self, tmp_path, overrides):
        path = os.path.join(cli.SCENARIOS_DIR, "lane_change_k10.scenario")
        scenario, _ = scenario_io.load(path, overrides)
        record = sim.run(scenario)
        assert record.failure_reason.startswith("NumericBlowupError")
        assert all(map(math.isfinite, (v for s in record.samples for v in s)))
        args = ["run", "--scenario", path, "--out", str(tmp_path)]
        for item in overrides:
            args += ["--set", item]
        assert cli.main(args) == 3

    def test_one_projection_per_sample_plus_final_lateral(self, monkeypatch):
        sc = bundled("lane_change_k10")
        real_project = ReferenceLine.project
        calls = []

        def counting_project(self, position):
            calls.append(position)
            return real_project(self, position)

        monkeypatch.setattr(ReferenceLine, "project", counting_project)
        record = sim.run(sc)
        assert record.completed
        n_periods = round(sc.duration / (sc.control_divisor * sc.h))
        assert len(calls) == n_periods + 2

    @pytest.mark.parametrize(
        "stem, per_sample",
        [("corner_onepoint", 0), ("lane_change_k10", 0), ("corner_twopoint", 1)],
    )
    def test_lookahead_only_with_a_lookahead_distance(self, monkeypatch, stem, per_sample):
        # with delta_d0 = 0 the far point is the shadow point, so plan_step
        # does not look it up again
        sc = sim.apply_override(bundled(stem), "sim.duration_s", 5.0)
        real_lookahead = ReferenceLine.lookahead
        calls = []

        def counting_lookahead(self, station, delta_d0):
            calls.append(station)
            return real_lookahead(self, station, delta_d0)

        monkeypatch.setattr(ReferenceLine, "lookahead", counting_lookahead)
        record = sim.run(sc)
        assert record.completed and len(record.samples) > 100
        assert len(calls) == per_sample * len(record.samples)

    def test_one_vehicle_step_per_substep(self, monkeypatch):
        # sim.run looks vehicle.step up per run, so a patch set before the
        # run sees every substep
        sc = lane_change_scenario(duration=0.5)
        real_step = veh.step
        calls = []

        def counting_step(*args):
            calls.append(args[4])
            return real_step(*args)

        monkeypatch.setattr("lanesteer.vehicle.step", counting_step)
        record = sim.run(sc)
        assert record.completed
        n_periods = round(sc.duration / (sc.control_divisor * sc.h))
        assert n_periods == 50
        assert calls == [sc.h] * (sc.control_divisor * n_periods)

    @pytest.mark.parametrize("stem", ["lane_change_k10", "corner_twopoint"])
    def test_records_are_whole_namedtuples(self, monkeypatch, stem):
        # the loop builds its records with tuple.__new__, which checks no
        # field count, and == cannot see a wrong one: a tuple equals a
        # NamedTuple with the same values
        returned = {}

        def recording(name, fn):
            def wrapper(*args):
                result = fn(*args)
                returned.setdefault(name, []).append(result)
                return result
            return wrapper

        monkeypatch.setattr(veh, "step", recording("step", veh.step))
        monkeypatch.setattr(ctl, "plan_step", recording("plan_step", ctl.plan_step))
        for name in ("project", "point_at", "lookahead"):
            monkeypatch.setattr(
                ReferenceLine, name, recording(name, getattr(ReferenceLine, name))
            )
        record = sim.run(sim.apply_override(bundled(stem), "sim.duration_s", 0.5))
        assert record.completed
        returned["sample"] = list(record.samples)
        returned["shadow frame"] = [r.frame for r in returned["project"]]
        expected = {
            "step": VehicleState,
            "plan_step": ControlSample,
            "project": ShadowResult,
            "shadow frame": FramePoint,
            "point_at": FramePoint,
            "lookahead": FramePoint,
            "sample": sim.Sample,
        }
        if stem == "lane_change_k10":
            del expected["lookahead"]  # delta_d0 = 0: no look-ahead
        assert returned.keys() == expected.keys()
        for name, results in returned.items():
            cls = expected[name]
            assert all(type(r) is cls and len(r) == len(cls._fields) for r in results), name


class TestRunAbort:
    def test_abort_at_zero_never_leaves(self):
        record = sim.run(lane_change_scenario(abort_time=0.0))
        assert all(abs(s.d_lateral) < 1e-12 for s in record.samples)

    def test_prefix_identical_to_plain_run(self):
        full = sim.run(lane_change_scenario(duration=10.0))
        aborted = sim.run(lane_change_scenario(duration=10.0, abort_time=4.0))
        for a, b in zip(full.samples, aborted.samples):
            if a.t >= 4.0:
                break
            assert a == b

    def test_returns_to_original_lane(self):
        record = sim.run(lane_change_scenario(duration=15.0, abort_time=2.0))
        assert record.completed
        assert abs(record.metrics.final_lateral) < 0.05


class TestRunCorner:
    def test_one_point_centers_the_lane(self):
        record = sim.run(bundled("corner_onepoint"))
        assert record.completed
        assert record.metrics.steady_converged
        assert abs(record.metrics.steady_lateral) < 1e-3
        assert record.metrics.mean_steady_curvature == pytest.approx(0.01, rel=0.01)

    def test_two_point_steady_lateral(self):
        record = sim.run(bundled("corner_twopoint"))
        p = record.scenario.params
        expected = -p.alpha * p.delta_d0 * 0.01 / p.k
        assert record.metrics.steady_converged
        assert record.metrics.steady_lateral == pytest.approx(expected, rel=0.05)


    def test_two_point_drives_from_line_into_arc(self):
        # the two-point planner tracks inside the lane, so it meets the arc
        # on its concave side, where the arc's foot is clamped to the junction
        track = ReferenceLine.from_pieces(
            0.0, 0.0, 0.0, [("line", 50.0), ("arc", 60.0, 0.02), ("line", 100.0)]
        )
        sc = dataclasses.replace(bundled("corner_twopoint"), track=track, duration=150.0)
        record = sim.run(sc)
        assert record.completed, record.failure_reason
        assert record.samples[-1].t == pytest.approx(150.0)
        assert abs(record.metrics.final_lateral) < 0.05


# override keys whose values must be finite: NaN and +inf are both rejected
FINITE_KEYS = [
    "sim.duration_s",
    "sim.h_s",
    "planner.k_per_m",
    "planner.lambda_s2",
    "planner.delta_d0_m",
    "planner.v_s_m_per_s",
    "vehicle.l_f_m",
    "vehicle.l_r_m",
    "vehicle.u_max_rad_per_s",
    "sim.lane_change_offset_m",
    "sim.control_divisor",
]


class TestSweep:
    def test_singleton_matches_run(self):
        sc = lane_change_scenario(duration=3.0)
        [(overrides, record)] = sim.sweep(sc, {"planner.k_per_m": [0.5]})
        assert overrides == {"planner.k_per_m": 0.5}
        assert record.metrics == sim.run(sc).metrics

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            sim.sweep(lane_change_scenario(), {"planner.k_per_m": [0.5, 0.5]})

    def test_results_keyed_by_grid(self):
        sc = lane_change_scenario(duration=3.0)
        results = sim.sweep(sc, {"planner.k_per_m": [1.0, 0.5]})
        ks = [o["planner.k_per_m"] for o, _ in results]
        assert ks == [1.0, 0.5]  # axis order preserved, not sorted values

    def test_invalid_grid_value_fails_before_any_run(self, monkeypatch):
        runs = []
        monkeypatch.setattr(sim, "run", runs.append)
        with pytest.raises(ValueError):
            sim.sweep(lane_change_scenario(), {"planner.k_per_m": [0.5, 0.7, math.nan]})
        assert len(runs) == 0

    def test_override_unknown_key(self):
        with pytest.raises(KeyError):
            sim.apply_override(lane_change_scenario(), "planner.bogus", 1.0)

    def test_override_sim_field(self):
        sc = sim.apply_override(lane_change_scenario(), "sim.duration_s", 4.0)
        assert sc.duration == 4.0

    @pytest.mark.parametrize("key", FINITE_KEYS)
    def test_override_nan_rejected(self, key):
        with pytest.raises(ValueError):
            sim.apply_override(lane_change_scenario(), key, math.nan)

    @pytest.mark.parametrize("key", FINITE_KEYS)
    def test_override_inf_rejected(self, key):
        with pytest.raises(ValueError):
            sim.apply_override(lane_change_scenario(), key, math.inf)

    def test_override_fractional_control_divisor_rejected(self):
        with pytest.raises(ValueError, match="control divisor"):
            sim.apply_override(lane_change_scenario(), "sim.control_divisor", 2.5)

    def test_override_integral_control_divisor(self):
        sc = sim.apply_override(lane_change_scenario(), "sim.control_divisor", 4.0)
        assert sc.control_divisor == 4 and isinstance(sc.control_divisor, int)


def csv_module_bytes(path, rows):
    """The run CSV as the csv module's default writer emits it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(sim.CSV_COLUMNS)
        writer.writerows(rows)
    return path.read_bytes()


class TestCsv:
    def test_bytes_match_csv_module_on_special_floats(self, tmp_path):
        values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1]
        n = len(sim.CSV_COLUMNS)
        rows = [sim.Sample(*(values[(i + j) % len(values)] for j in range(n)))
                for i in range(len(values))]
        sim.write_csv(tmp_path / "run.csv", rows)
        written = (tmp_path / "run.csv").read_bytes()
        assert written == csv_module_bytes(tmp_path / "oracle.csv", rows)
        assert written.count(b"\r\n") == len(rows) + 1 and b'"' not in written

    def test_bytes_match_csv_module_on_a_corner(self, tmp_path):
        record = sim.run(dataclasses.replace(bundled("corner_twopoint"), duration=20.0))
        assert record.completed and len(record.samples) == 401
        sim.write_csv(tmp_path / "run.csv", record.samples)
        written = (tmp_path / "run.csv").read_bytes()
        assert written == csv_module_bytes(tmp_path / "oracle.csv", record.samples)

    def test_round_trip_metrics(self, tmp_path, read_samples):
        # on the corner the shadow-point curvature is not zero
        corner = dataclasses.replace(bundled("corner_twopoint"), duration=20.0)
        for sc in (lane_change_scenario(duration=5.0), corner):
            record = sim.run(sc)
            path = tmp_path / "run.csv"
            sim.write_csv(path, record.samples)
            rows = read_samples(path)
            assert rows == list(record.samples)
            # re-projecting each row is the oracle for the curvature the run
            # hands over from plan_step
            kappa_n = [
                sc.target_at(r.t).project((r.x, r.y)).frame.curvature for r in rows
            ]
            final_lateral = -sc.track.project((rows[-1].x, rows[-1].y)).signed_lateral
            again = sim.metrics_from_samples(sc, rows, kappa_n, final_lateral)
            for field in dataclasses.fields(sim.RunMetrics):
                a = getattr(record.metrics, field.name)
                b = getattr(again, field.name)
                if isinstance(a, float):
                    assert b == pytest.approx(a, abs=1e-9)
                else:
                    assert a == b
