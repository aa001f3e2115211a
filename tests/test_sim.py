import copy
import csv
import hashlib
import inspect
import itertools
import math
import os
import pickle
import random
import sys

import pytest

from lanesteer import cli, errors, scenario_io, sim
from lanesteer import control as ctl
from lanesteer import vehicle as veh
from lanesteer.control import PlannerParams
from lanesteer.errors import NumericBlowupError, StationRangeError
from lanesteer.refline import FramePoint, ReferenceLine, ShadowResult
from lanesteer.vehicle import VehicleGeometry, VehicleState
from oracles.target import target_at

GEOM = VehicleGeometry(l_f=1.5, l_r=1.5)


def straight_track(length=200.0):
    return sim.Track(0.0, 0.0, 0.0, (("line", length),))


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
        track = sim.Track(0.0, 0.0, 0.0, (("line", 5.0), ("arc", 20.0, 0.5)))
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

    @pytest.mark.parametrize("h", [0.4, 0.6, 0.0999, 5e-324,
                                   1 / (2 ** 53 + 2), 1e-300])
    def test_duration_not_whole_periods_rejected(self, h):
        # 2.5, 1.67 and 10.01 periods of the 10 s run; at 5e-324 the
        # period count overflows to inf; 2**53 + 2 and 1e300 periods are
        # whole, as every float above 2**53 is, but i * period is no
        # longer exact there
        with pytest.raises(ValueError, match="whole number of control periods"):
            lane_change_scenario(h=h)

    def test_2_53_periods_rejected(self):
        # whole, with t = i * period exact, but 10 * 2**53 RK4 steps
        assert 10.0 / (10 * 2.0 ** -53) == 2 ** 53
        with pytest.raises(ValueError, match="at most 10\\*\\*8 RK4 steps"):
            lane_change_scenario(h=2.0 ** -53)

    @pytest.mark.parametrize("divisor", [1, 10, 7])
    def test_step_bound(self, divisor):
        # 10**8 RK4 steps in all are accepted, one period more is not; the
        # scenarios are built, never run.  h = 2**-20 makes each duration
        # exact; with 7 steps a period, 10**8 // 7 periods are the most
        h = 2.0 ** -20
        periods = 10 ** 8 // divisor
        sc = lane_change_scenario(duration=periods * divisor * h, h=h,
                                  control_divisor=divisor)
        assert round(sc.duration / (divisor * h)) * divisor <= 10 ** 8
        with pytest.raises(ValueError, match="at most 10\\*\\*8 RK4 steps"):
            lane_change_scenario(duration=(periods + 1) * divisor * h, h=h,
                                 control_divisor=divisor)

    def test_target_swaps_at_abort(self):
        sc = lane_change_scenario(abort_time=2.0)
        before = target_at(sc, 1.9).point_at(0.0).position
        after = target_at(sc, 2.0).point_at(0.0).position
        assert before == pytest.approx((0.0, 3.5))
        assert after == pytest.approx((0.0, 0.0))

    def test_a_validating_9_tuple(self):
        a = lane_change_scenario()
        b = sim.Scenario(*a)
        assert type(a) is sim.Scenario and len(a) == 9
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a == tuple(a) and hash(a) == hash(tuple(a))
        assert repr(a) == "Scenario(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(a._fields, a)) + ")"
        for q in (copy.copy(a), a._make(a), a._replace()):
            assert type(q) is sim.Scenario and q == a
            assert target_at(q, 0.0).point_at(0.0) == target_at(a, 0.0).point_at(0.0)
        # the track compares by value, so an unpickled copy is equal too
        q = pickle.loads(pickle.dumps(a))
        assert type(q) is sim.Scenario and q == a
        assert target_at(q, 0.0).point_at(5.0) == target_at(a, 0.0).point_at(5.0)
        # the constructor's signature carries the fields' defaults
        parameters = inspect.signature(sim.Scenario).parameters
        assert list(parameters) == list(sim.Scenario._fields)
        assert {name: par.default for name, par in parameters.items()
                if par.default is not inspect.Parameter.empty
                } == sim.Scenario._field_defaults

    def test_replace_rebuilds_the_target_line(self):
        sc = lane_change_scenario()
        moved = sc._replace(lane_change_offset=-2.0)
        assert target_at(moved, 0.0).point_at(0.0).position == (0.0, -2.0)
        assert target_at(sc, 0.0).point_at(0.0).position == (0.0, 3.5)
        unmoved = target_at(sc._replace(lane_change_offset=None), 0.0)
        assert unmoved.point_at(0.0).position == (0.0, 0.0)
        track = straight_track(50.0)
        assert target_at(sc._replace(track=track), 0.0).total_length == 50.0

    @pytest.mark.parametrize("stem", ["lane_change_k10", "corner_twopoint"])
    def test_holds_no_per_instance_state(self, stem):
        # the nine fields and nothing else: no __dict__ beside the tuple
        sc = bundled(stem)
        assert not hasattr(sc, "__dict__")
        assert sys.getsizeof(sc) == sys.getsizeof(tuple(sc))

    def test_replaced_offset_is_the_line_the_run_steers_to(self, monkeypatch):
        lines = []
        plan_step = ctl.plan_step

        def recording(target, *args):
            lines.append(target)
            return plan_step(target, *args)

        monkeypatch.setattr(ctl, "plan_step", recording)
        sc = lane_change_scenario(duration=1.0)
        assert sim.run(sc._replace(lane_change_offset=-2.0)).completed
        assert len(lines) == 101
        assert {line.point_at(0.0).position for line in lines} == {(0.0, -2.0)}

    @pytest.mark.parametrize("changes, name, value, message", [
        *[({}, "duration", bad, "duration must")
          for bad in (0.0, -1.0, math.nan, math.inf)],
        *[({}, "h", bad, "integration step must")
          for bad in (0.0, -1e-3, math.nan, math.inf)],
        *[({}, "control_divisor", bad, "control divisor must") for bad in (0, -10)],
        # 2.5 and 1.67 periods, and more than 2**53 of them
        *[({}, "h", bad, "duration must be a whole number")
          for bad in (0.4, 0.6, 1 / (2 ** 53 + 2), 1e-300, 5e-324)],
        *[({}, "initial_state", bad, "initial state must")
          for bad in (VehicleState(math.nan, 0.0, 0.0, 0.0),
                      VehicleState(0.0, 0.0, math.inf, 0.0))],
        *[({}, "lane_change_offset", bad, "lane-change offset must")
          for bad in (math.nan, math.inf, -math.inf)],
        ({"lane_change_offset": None}, "abort_time", 2.0, "abort_time requires"),
        *[({}, "abort_time", bad, "abort_time must")
          for bad in (-1.0, 10.0, math.nan, math.inf)],
        # 3.5 m toward the center of a 2 m-radius arc
        ({"lane_change_offset": None,
          "track": sim.Track(0.0, 0.0, 0.0, (("arc", 20.0, 0.5),))},
         "lane_change_offset", 3.5, "parallel offset collapses"),
        *[({}, "track", sim.Track(*pose, pieces), message)
          for pose, pieces, message in (
              ((math.nan, 0.0, 0.0), (("line", 10.0),), "start pose must be finite"),
              ((0.0, 0.0, math.inf), (("line", 10.0),), "start pose must be finite"),
              ((0.0, 0.0, 0.0), (), "reference line needs at least one piece"),
              ((0.0, 0.0, 0.0), (("line", -1.0),), "segment length must"),
              ((0.0, 0.0, 0.0), (("arc", 1.0, 0.0),), "arc curvature must"))],
    ])
    def test_every_way_of_building_checks_every_rule(self, changes, name, value,
                                                     message):
        good = lane_change_scenario()._replace(**changes)
        values = good._asdict()
        values[name] = value
        keys = {field: key for key, field in sim._SIM_KEYS.items()}
        # an instance that skipped the checks, as only tuple.__new__ builds one
        forged = tuple.__new__(sim.Scenario, values.values())
        ways = {
            "positional": lambda: sim.Scenario(*values.values()),
            "keyword": lambda: sim.Scenario(**values),
            "_replace": lambda: good._replace(**{name: value}),
            "_make": lambda: sim.Scenario._make(values.values()),
            "copy": lambda: copy.copy(forged),
            "pickle": lambda: pickle.loads(pickle.dumps(forged)),
        }
        if name in keys:  # the initial state has no override key
            ways["apply_override"] = lambda: sim.apply_override(
                good, f"sim.{keys[name]}", value
            )
        raised = {}
        for way, build in ways.items():
            try:
                build()
            except ValueError as exc:
                raised[way] = str(exc)
        assert raised.keys() == ways.keys()
        assert all(text.startswith(message) for text in raised.values()), raised


class TestRun:
    @pytest.mark.parametrize("name", PlannerParams._fields)
    def test_every_planner_field_reaches_the_run(self, name):
        base = bundled("corner_twopoint")._replace(duration=20.0)
        params = base.params
        changed = params._replace(**{name: 1.1 * getattr(params, name)})
        samples = sim.run(base).samples
        assert sim.run(base._replace(params=changed)).samples != samples

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
        real_project = ReferenceLine.project

        def outside(line, position):
            # the track starts at (0, 0), its 3.5 m offset line does not
            if line.point_at(0.0).position == (0.0, 0.0):
                raise StationRangeError("injected")
            return real_project(line, position)

        monkeypatch.setattr(ReferenceLine, "project", outside)
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
        # plan_step returns a pair: the period's Sample and its dtheta/dt
        pairs = returned["plan_step"]
        assert all(type(p) is tuple and len(p) == 2 for p in pairs)
        returned["plan_step"] = [sample for sample, _ in pairs]
        returned["sample"] = list(record.samples)
        returned["shadow frame"] = [r.frame for r in returned["project"]]
        expected = {
            "step": VehicleState,
            "plan_step": sim.Sample,
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

    # SHA-256 of repr(samples) and repr(metrics) of lane_change_k10 with
    # sim.abort_time_s at 0, on a period boundary, between periods and past
    # the peak: the bundled CSVs have no abort, so these hold the swap to
    # the last bit
    ABORT_SHA256 = {
        0.0: ("9e042075e54e11650e51ec2d64525d45c464aba1ca66b174ba9ef391e62209ed",
              "cd851d77b77550e76f9dfe7cdd916348d580acec7e5a612c392af06e3cb66ea0"),
        2.0: ("9c25081ea1ec9c81fb0950a3ab525d95ca30da36bc2609149b802126d6ade1b5",
              "ebb3e8873c294d92ae344f1bcc27055630e121e0380cdb2b9a37042985678b87"),
        2.005: ("bf59815b5681e91fb69a57dd0be31e9afe58c5aa9b352d3a927a4bff59329d9a",
                "3f088eeb26fad29ee3800ae6a592a0a5b4170cef51e154c6d312c22c44f00d96"),
        3.3: ("e7a0b85b6923223c1bf4092aee4866051efbd29e14d00e0ab8ec726db0ed8e6f",
              "4c93eb63521887a5a7148ad942514611ce3a87fc42e60501c37f0482e86c683b"),
    }

    @pytest.mark.parametrize("abort_time", sorted(ABORT_SHA256))
    def test_abort_run_digest(self, abort_time):
        sc = sim.apply_override(bundled("lane_change_k10"), "sim.abort_time_s", abort_time)
        record = sim.run(sc)
        digests = tuple(hashlib.sha256(repr(x).encode()).hexdigest()
                        for x in (record.samples, record.metrics))
        assert digests == self.ABORT_SHA256[abort_time]

    # swap is the first period i with i * period >= abort_time, or the
    # sample count where there is none; the abort times lie on a rounded
    # product i * period, one ulp to either side of one, or between two
    @pytest.mark.parametrize("duration, h, divisor, abort_time, swap", [
        (10.0, 1e-3, 10, 0.0, 0),
        (10.0, 1e-3, 10, 2.0, 200),
        (10.0, 1e-3, 10, 2.005, 201),
        (10.0, 1e-3, 10, 3.3, 330),
        (10.0, 1e-3, 10, 0.07, 7),
        (10.0, 1e-3, 10, 0.030000000000000002, 4),
        (1.0, 0.1, 1, 0.30000000000000004, 3),
        (1.0, 0.1, 1, 0.9000000000000001, 10),
        (1.0, 0.1, 1, math.nextafter(1.0, 0.0), 10),
        # 3 * period = 0.30000000000000004 lies below both
        (0.30000000000000016, 0.1, 1, 0.3000000000000001, 4),
    ])
    def test_target_swaps_where_target_at_does(self, monkeypatch, duration, h,
                                               divisor, abort_time, swap):
        targets = []
        plan_step = ctl.plan_step

        def recording(target, *args):
            targets.append(target)
            return plan_step(target, *args)

        monkeypatch.setattr(ctl, "plan_step", recording)
        sc = lane_change_scenario(duration=duration, h=h, control_divisor=divisor,
                                  abort_time=abort_time)
        record = sim.run(sc)
        assert record.completed
        assert len(targets) == len(record.samples)
        # the oracle builds new lines on each call, equal to the run's; the
        # run steers to one line object until the swap, and the track's after
        expected = [target_at(sc, s.t) for s in record.samples]
        assert [t.segments == e.segments for t, e in zip(targets, expected)] == [
            True] * len(targets)
        track = target_at(sc._replace(lane_change_offset=None, abort_time=None), 0.0)
        assert [t.segments == track.segments for t in targets] == [
            i >= swap for i in range(len(targets))]
        assert len({id(t) for t in targets}) == (2 if 0 < swap < len(targets) else 1)


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

    def test_lane_change_settled_near_zero_is_converged(self):
        # the one-point run's steady lateral is 0; after 150 s it reads 2e-6 m,
        # its window means differing by far less than 1e-6 of the 3.5 m peak
        record = sim.run(
            bundled("corner_onepoint")._replace(lane_change_offset=3.5, duration=150.0)
        )
        assert record.completed and record.metrics.steady_converged
        assert abs(record.metrics.steady_lateral) < 1e-5


    def test_two_point_drives_from_line_into_arc(self):
        # the two-point planner tracks inside the lane, so it meets the arc
        # on its concave side, where the arc's foot is clamped to the junction
        track = sim.Track(
            0.0, 0.0, 0.0, (("line", 50.0), ("arc", 60.0, 0.02), ("line", 100.0))
        )
        sc = bundled("corner_twopoint")._replace(track=track, duration=150.0)
        record = sim.run(sc)
        assert record.completed, record.failure_reason
        assert record.samples[-1].t == pytest.approx(150.0)
        assert abs(record.metrics.final_lateral) < 0.05

    def test_two_point_look_ahead_leaves_the_line(self):
        # the full circle is 628.3 m long and the look-ahead 16.6 m: the run
        # stops when the look-ahead point passes the line's end, with the
        # vehicle itself still 16 m before it
        record = sim.run(bundled("corner_twopoint")._replace(duration=620.0))
        assert not record.completed
        assert record.failure_reason.startswith("StationRangeError")
        assert len(record.samples) == 12235
        assert record.samples[-1].t == pytest.approx(611.7)


class TestSteadyWindowMean:
    def test_decay_to_near_zero_is_converged(self):
        # ends at 7e-9; the window means, 2e-7 and 2e-8, disagree by far more
        # than 1 % but less than 1e-6 of the 3.5 peak
        values = [3.5 * math.exp(-i / 50) for i in range(1000)]
        mean, converged = sim._steady_window_mean(values)
        assert converged
        assert mean == pytest.approx(sum(values[750:]) / 250)

    def test_still_moving_is_not_converged(self):
        # a drift of 1e-4 of the peak across the window: the means differ by
        # 7.5e-6, above 1 % of themselves and 1e-6 of the peak
        values = [1.0] + [1e-4 * i / 1000 for i in range(1000)]
        assert sim._steady_window_mean(values)[1] is False


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


# every kind of grid that sim.sweep rejects, with its message
SWEEP_REJECTIONS = [
    ({}, "sweep needs at least one axis"),
    ({"planner.k_per_m": []}, "axis 'planner.k_per_m' has no values"),
    ({"planner.k_per_m": [0.5, 0.5]}, "axis 'planner.k_per_m' has duplicate values"),
    ({"output.emit_svg": [0.0, 1.0]}, "unknown override section 'output'"),
    ({"planner.bogus": [1.0]}, "unknown planner parameter 'bogus'"),
    ({"planner.k_per_m": [0.5, -1.0]},
     "planner.k_per_m = -1.0: k must be positive and finite"),
    ({"sim.control_divisor": [2.5]},
     "sim.control_divisor = 2.5: control divisor 2.5 is not an integer"),
    ({"sim.lane_change_offset_m": [1e3]},
     "sim.lane_change_offset_m = 1000.0: parallel offset collapses an arc segment"),
    ({"track.segment": [1.0]}, "track.segment = 1.0: a segment is text, not a number"),
]


# grids whose keys each fail against the file's other values but pass
# together, as the same --set values do
JOINT_GRIDS = [
    ("lane_change_k10", {"sim.duration_s": [0.015], "sim.h_s": [0.0015]}),
    ("lane_change_k10", {"sim.duration_s": [20.0], "sim.abort_time_s": [15.0]}),
    ("corner_twopoint", {"sim.lane_change_offset_m": [3.5], "sim.abort_time_s": [2.0]}),
]


class TestSweep:
    @pytest.mark.parametrize("stem, axes", JOINT_GRIDS)
    def test_point_is_checked_as_a_file_is(self, monkeypatch, stem, axes):
        monkeypatch.setattr(sim, "run", lambda scenario: scenario)
        path = os.path.join(cli.SCENARIOS_DIR, f"{stem}.scenario")
        [(overrides, scenario)] = sim.sweep(bundled(stem), axes)
        sets = [f"{key}={value!r}" for key, value in overrides.items()]
        assert scenario == scenario_io.load(path, sets)[0]

    def test_rejected_point_message_names_every_key(self):
        with pytest.raises(errors.ScenarioValidationError) as info:
            sim.sweep(bundled("lane_change_k10"),
                      {"sim.duration_s": [5.0], "sim.abort_time_s": [7.0]})
        assert info.value.args == (
            "sim.abort_time_s = 7.0, sim.duration_s = 5.0: "
            "abort_time must lie in [0, duration)",
        )

    def test_track_keys_are_grid_keys(self, monkeypatch):
        # each point's track is the file's, with its start pose replaced, as
        # the same --set values give it
        monkeypatch.setattr(sim, "run", lambda scenario: scenario)
        path = os.path.join(cli.SCENARIOS_DIR, "lane_change_k10.scenario")
        base = bundled("lane_change_k10")
        axes = {"track.start_heading_rad": [0.0, 0.1], "track.start_x_m": [-5.0],
                "track.start_y_m": [2.0]}
        points = list(sim.sweep(base, axes))
        assert [scenario.track for _, scenario in points] == [
            base.track._replace(start_x=-5.0, start_y=2.0, start_heading=heading)
            for heading in (0.0, 0.1)
        ]
        for overrides, scenario in points:
            sets = [f"{key}={value!r}" for key, value in overrides.items()]
            assert scenario == scenario_io.load(path, sets)[0]

    def test_segment_override_takes_pieces(self):
        sc = sim.apply_override(lane_change_scenario(), "track.segment",
                                (("line", 50.0), ("arc", 10.0, 0.1)))
        assert sc.track == sim.Track(0.0, 0.0, 0.0, (("line", 50.0), ("arc", 10.0, 0.1)))
        with pytest.raises(ValueError, match="a segment is text"):
            sim.apply_override(lane_change_scenario(), "track.segment", 1.0)

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

    @pytest.mark.parametrize("axes, message", SWEEP_REJECTIONS)
    def test_rejected_grid_message(self, axes, message):
        # on an arc, so that an offset can collapse it
        arc = sim.Track(0.0, 0.0, 0.0, (("arc", 100.0, 0.01),))
        with pytest.raises(errors.ScenarioValidationError) as info:
            sim.sweep(lane_change_scenario()._replace(track=arc), axes)
        assert type(info.value) is errors.ScenarioValidationError
        assert info.value.args == (message,)

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


# a drawn scenario that asks for more RK4 steps than this is not run: a
# 1e-11 s step on the 0.5 s lane change asks for 5e10 of them, which is a
# long run, not a failure
FUZZ_STEP_BUDGET = 5000


def fuzz_value(rng):
    """Log-uniform over 1e-300..1e300, with the smallest subnormal and
    negatives mixed in."""
    value = 5e-324 if rng.random() < 0.1 else 10.0 ** rng.uniform(-300, 300)
    return -value if rng.random() < 0.25 else value


class TestRunFuzz:
    def test_every_run_ends_finite_or_typed(self):
        # each draw sets 1-3 override keys of a bundled run cut to 50
        # periods: the scenario is rejected with a ValueError, or its run
        # returns a record that is finite where completed and typed where not
        keys = [f"{section}.{key}" for section, table in sim._TABLES.items()
                for key in table]
        bases = [sc._replace(duration=50 * sc.control_divisor * sc.h)
                 for sc in (bundled("lane_change_k10"), bundled("corner_twopoint"))]
        rng = random.Random(2021)
        outcomes = {"rejected": 0, "too long": 0, "completed": 0, "failed": 0}
        for i in range(1000):
            sc = bases[i % 2]
            draws = [(rng.choice(keys), fuzz_value(rng))
                     for _ in range(rng.randint(1, 3))]
            try:
                for key, value in draws:
                    sc = sim.apply_override(sc, key, value)
            except ValueError:
                outcomes["rejected"] += 1
                continue
            if sc.duration / sc.h > FUZZ_STEP_BUDGET:
                outcomes["too long"] += 1
                continue
            record = sim.run(sc)
            if record.completed:
                outcomes["completed"] += 1
                assert all(map(math.isfinite, itertools.chain(*record.samples))), draws
                assert all(map(math.isfinite, record.metrics)), draws
            else:
                outcomes["failed"] += 1
                name = record.failure_reason.partition(":")[0]
                assert issubclass(getattr(errors, name), errors.PlannerError), draws
        assert outcomes["too long"] <= 5
        assert outcomes["completed"] >= 200 and outcomes["failed"] >= 30, outcomes


def csv_module_bytes(path, rows):
    """The run CSV as the csv module's default writer emits it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(sim.Sample._fields)
        writer.writerows(rows)
    return path.read_bytes()


class TestCsv:
    def test_bytes_match_csv_module_on_special_floats(self, tmp_path):
        values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1]
        n = len(sim.Sample._fields)
        rows = [sim.Sample(*(values[(i + j) % len(values)] for j in range(n)))
                for i in range(len(values))]
        sim.write_csv(tmp_path / "run.csv", rows)
        written = (tmp_path / "run.csv").read_bytes()
        assert written == csv_module_bytes(tmp_path / "oracle.csv", rows)
        assert written.count(b"\r\n") == len(rows) + 1 and b'"' not in written

    def test_bytes_match_csv_module_on_a_corner(self, tmp_path):
        record = sim.run(bundled("corner_twopoint")._replace(duration=20.0))
        assert record.completed and len(record.samples) == 401
        sim.write_csv(tmp_path / "run.csv", record.samples)
        written = (tmp_path / "run.csv").read_bytes()
        assert written == csv_module_bytes(tmp_path / "oracle.csv", record.samples)

    def test_round_trip_metrics(self, tmp_path, read_samples):
        # on the corner the shadow-point curvature is not zero
        corner = bundled("corner_twopoint")._replace(duration=20.0)
        for sc in (lane_change_scenario(duration=5.0), corner):
            record = sim.run(sc)
            path = tmp_path / "run.csv"
            sim.write_csv(path, record.samples)
            rows = read_samples(path)
            assert rows == list(record.samples)
            # re-projecting each row is the oracle for the shadow-point
            # curvature in the dtheta/dt that the run hands over from plan_step
            kappa_n = [
                target_at(sc, r.t).project((r.x, r.y)).frame.curvature for r in rows
            ]
            dtheta_dots = [r.kappa_e_inst * r.v - sc.params.v_s * kn
                           for r, kn in zip(rows, kappa_n, strict=True)]
            final_lateral = -sc.track.line().project((rows[-1].x, rows[-1].y)).signed_lateral
            again = sim.metrics_from_samples(rows, dtheta_dots, final_lateral)
            for name in sim.RunMetrics._fields:
                a = getattr(record.metrics, name)
                b = getattr(again, name)
                if isinstance(a, float):
                    assert b == pytest.approx(a, abs=1e-9)
                else:
                    assert a == b
