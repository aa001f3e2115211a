import copy
import inspect
import math
import os
import pickle

import pytest
from hypothesis import given, strategies as st

from lanesteer import cli, scenario_io, sim
from lanesteer import control as ctl
from lanesteer import vehicle as veh
from lanesteer.control import PlannerParams
from lanesteer.errors import (
    GeometryDegenerateError,
    ShadowRegularityError,
    SteeringDomainError,
)
from lanesteer.refline import ReferenceLine, wrap_angle
from lanesteer.vehicle import VehicleGeometry, VehicleState

GEOM = VehicleGeometry(l_f=1.5, l_r=1.5)


def base_params(**overrides):
    kwargs = dict(k=0.5, lam=1.0)
    kwargs.update(overrides)
    return PlannerParams(**kwargs)


class TestPlannerParams:
    def test_build_derives_gamma(self):
        p = base_params(alpha=0.5, delta_d0=2.0)
        assert p.gamma == 0.5 * 0.5 * 2.0
        assert base_params().gamma == 0.0

    @pytest.mark.parametrize("lambda0", [0.5, 1.0, 1.5])
    def test_lambda0_derived_without_a_range_check(self, lambda0):
        # lambda0 >= 1 is check_oscillation's to reject, not the
        # constructor's: the k = 1 and k = 1.5 lane changes run with it
        k, v_s = 0.8, 2.5
        p = base_params(k=k, v_s=v_s, lam=(lambda0 / (k * v_s)) ** 2)
        assert p.lambda0 == pytest.approx(lambda0, rel=1e-15)

    def test_alpha_range(self):
        with pytest.raises(ValueError, match="alpha"):
            base_params(alpha=1.0)

    def test_positive_gains(self):
        with pytest.raises(ValueError):
            base_params(k=0.0)
        with pytest.raises(ValueError):
            base_params(lam=-1.0)

    def test_a_validating_5_tuple(self):
        p = PlannerParams(0.5, 1.0, 0.5, 2.0, 3.0)
        assert type(p) is PlannerParams and tuple(p) == (0.5, 1.0, 0.5, 2.0, 3.0)
        assert repr(p) == "PlannerParams(k=0.5, lam=1.0, alpha=0.5, delta_d0=2.0, v_s=3.0)"
        assert hash(p) == hash((0.5, 1.0, 0.5, 2.0, 3.0))
        assert not hasattr(p, "__dict__")
        for q in (copy.copy(p), pickle.loads(pickle.dumps(p)), p._make(p),
                  p._replace()):
            assert type(q) is PlannerParams and q == p
        # the constructor's signature carries the fields' defaults
        parameters = inspect.signature(PlannerParams).parameters
        assert list(parameters) == list(PlannerParams._fields)
        assert {name: par.default for name, par in parameters.items()
                if par.default is not inspect.Parameter.empty
                } == PlannerParams._field_defaults

    @pytest.mark.parametrize("name, value", [
        *[(name, bad) for name in ("k", "lam", "v_s")
          for bad in (0.0, -1.0, math.nan, math.inf, -math.inf)],
        *[("alpha", bad) for bad in (-0.1, 1.0, math.nan, math.inf, -math.inf)],
        *[("delta_d0", bad) for bad in (-1.0, math.nan, math.inf, -math.inf)],
    ])
    def test_every_way_of_building_checks_every_field(self, name, value):
        good = PlannerParams(0.5, 1.0, 0.5, 2.0, 3.0)
        values = good._asdict()
        values[name] = value
        message = {"lam": "lambda"}.get(name, name)
        key = {v: k for k, v in sim._PLANNER_KEYS.items()}[name]
        scenario, _ = scenario_io.load(
            os.path.join(cli.SCENARIOS_DIR, "lane_change_k10.scenario")
        )
        # an instance that skipped the checks, as only tuple.__new__ builds one
        forged = tuple.__new__(PlannerParams, values.values())
        ways = {
            "positional": lambda: PlannerParams(*values.values()),
            "keyword": lambda: PlannerParams(**values),
            "_replace": lambda: good._replace(**{name: value}),
            "_make": lambda: PlannerParams._make(values.values()),
            "apply_override": lambda: sim.apply_override(
                scenario, f"planner.{key}", value
            ),
            "copy": lambda: copy.copy(forged),
            "pickle": lambda: pickle.loads(pickle.dumps(forged)),
        }
        raised = {}
        for way, build in ways.items():
            try:
                build()
            except ValueError as exc:
                raised[way] = str(exc)
        assert raised.keys() == ways.keys()
        assert all(text.startswith(f"{message} must") for text in raised.values()), raised


class TestErrorStates:
    def test_one_point_on_manifold(self):
        # e = 0 exactly when the orientation difference equals k * lateral
        k, lat = 0.5, 1.2
        e = ctl.error_two_point(k * lat, 0.0, 0.9, lat, k, 0.0)
        assert e == pytest.approx(0.0)

    def test_two_point_reduces_to_one_point_at_alpha_zero(self):
        # the one-point error wrap(theta_v - theta_n) - k * lateral
        e1 = wrap_angle(0.3 - 0.1) - 0.5 * 0.7
        e2 = ctl.error_two_point(0.3, 0.1, 2.0, 0.7, 0.5, 0.0)
        assert e2 == pytest.approx(e1)

    def test_blend_moves_target_toward_far(self):
        e = ctl.error_two_point(0.0, 0.0, 0.4, 0.0, 0.5, 0.5)
        assert e == pytest.approx(-0.2)

    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
    def test_branch_cut_insensitive(self, tv, tn, tf):
        e = ctl.error_two_point(tv, tn, tf, 0.0, 0.5, 0.3)
        e_shift = ctl.error_two_point(tv + 2 * math.pi, tn, tf - 2 * math.pi, 0.0, 0.5, 0.3)
        assert math.isclose(
            wrap_angle(e - e_shift), 0.0, abs_tol=1e-9
        )


class TestVehicleSpeed:
    def test_straight_aligned_equals_plan_speed(self):
        assert ctl.vehicle_speed(2.0, 0.0, 1.0) == pytest.approx(2.0)

    def test_speeds_up_when_misaligned(self):
        assert ctl.vehicle_speed(1.0, 0.0, 0.5) == pytest.approx(2.0)

    def test_curvature_coupling(self):
        # lateral_term = <r, y_s> * kappa
        assert ctl.vehicle_speed(1.0, 0.3, 1.0) == pytest.approx(1.3)

    def test_perpendicular_degenerate(self):
        with pytest.raises(GeometryDegenerateError):
            ctl.vehicle_speed(1.0, 0.0, 0.05)

    def test_beyond_center_of_curvature(self):
        with pytest.raises(ShadowRegularityError):
            ctl.vehicle_speed(1.0, -1.0, 1.0)


class TestControlLaw:
    def test_error_derivative_is_minus_e_over_sqrt_lambda(self):
        # finite-difference de/dt along the closed loop must equal -e/sqrt(lam)
        line = ReferenceLine.from_pieces(0.0, 0.0, 0.0, [("line", 200.0)])
        params = base_params(k=0.3, lam=2.0)
        state = VehicleState(5.0, 0.8, 0.2, 0.05)
        h = 1e-5
        cs, _ = ctl.plan_step(line, GEOM, state, params, 0.0)
        nxt = veh.step(GEOM, state, cs.v, cs.u_applied, h)
        cs2, _ = ctl.plan_step(line, GEOM, nxt, params, 0.0)
        de = (cs2.e - cs.e) / h
        assert de == pytest.approx(-cs.e / math.sqrt(params.lam), rel=1e-3)

    def test_error_derivative_on_arc_with_lookahead(self):
        # the same closed-loop identity must survive curvature and blending
        line = ReferenceLine.from_pieces(
            0.0, 0.0, 0.0, [("arc", 2 * math.pi * 100.0, 0.01)]
        )
        params = base_params(
            k=0.12, lam=(0.5 / 0.12) ** 2, alpha=0.5, delta_d0=8.0
        )
        state = VehicleState(20.0, 2.5, 0.25, 0.02)
        h = 1e-5
        cs, _ = ctl.plan_step(line, GEOM, state, params, 0.0)
        nxt = veh.step(GEOM, state, cs.v, cs.u_applied, h)
        cs2, _ = ctl.plan_step(line, GEOM, nxt, params, 0.0)
        de = (cs2.e - cs.e) / h
        assert de == pytest.approx(-cs.e / math.sqrt(params.lam), rel=1e-3)

    def test_equilibrium_is_stationary(self):
        line = ReferenceLine.from_pieces(0.0, 0.0, 0.0, [("line", 100.0)])
        params = base_params()
        cs, _ = ctl.plan_step(line, GEOM, VehicleState(10.0, 0.0, 0.0, 0.0), params, 0.0)
        assert cs.e == pytest.approx(0.0)
        assert cs.u_s + cs.u_c == pytest.approx(0.0)
        assert cs.v == pytest.approx(params.v_s)

    def test_saturation_clamps_u(self):
        line = ReferenceLine.from_pieces(0.0, 0.0, 0.0, [("line", 100.0)])
        params = base_params(k=2.0, lam=0.01)
        cs, _ = ctl.plan_step(line, GEOM, VehicleState(10.0, 2.0, 0.0, 0.0), params, 0.0)
        assert abs(cs.u_s + cs.u_c) > GEOM.u_max
        assert abs(cs.u_applied) == GEOM.u_max

    def test_optimal_correction_sign_and_scale(self):
        # u_c = -e / (g(delta) * sqrt(lam)), opposing the error
        line = ReferenceLine.from_pieces(0.0, 0.0, 0.0, [("line", 100.0)])
        params = base_params(lam=4.0)
        cs, _ = ctl.plan_step(line, GEOM, VehicleState(10.0, 0.4, 0.0, 0.0), params, 0.0)
        g = veh.slip_and_gain(GEOM, 0.0)[1]
        assert cs.e == pytest.approx(0.5 * 0.4)
        assert cs.u_c == pytest.approx(-cs.e / (g * 2.0))

    @pytest.mark.parametrize("delta", [math.pi / 2, -math.pi / 2, 1.6, -3.0, math.nan])
    def test_wheel_angle_outside_domain_raises(self, delta):
        line = ReferenceLine.from_pieces(0.0, 0.0, 0.0, [("line", 100.0)])
        for params in (base_params(), base_params(alpha=0.5, delta_d0=5.0)):
            with pytest.raises(SteeringDomainError, match="outside"):
                ctl.plan_step(line, GEOM, VehicleState(10.0, 0.3, 0.0, delta), params, 0.0)

    def test_velocity_orientation_is_heading_plus_slip(self):
        line = ReferenceLine.from_pieces(0.0, 0.0, 0.0, [("line", 100.0)])
        state = VehicleState(1.0, 2.0, 0.7, 0.1)
        cs, _ = ctl.plan_step(line, GEOM, state, base_params(), 0.0)
        assert cs.beta == veh.slip_and_gain(GEOM, 0.1)[0]
        assert cs.theta_v == wrap_angle(0.7 + cs.beta)
        delta_theta = wrap_angle(cs.theta_v - cs.theta_n)
        assert cs.d_lateral_rate == -cs.v * math.sin(delta_theta)

    def test_path_curvature_combines_yaw_and_slip_rate(self):
        # kappa_e = omega / v with omega = (v / l_r) sin(beta) + g(delta) u
        line = ReferenceLine.from_pieces(0.0, 0.0, 0.0, [("line", 100.0)])
        cs, _ = ctl.plan_step(
            line, GEOM, VehicleState(10.0, 0.3, 0.1, 0.2), base_params(), 0.0)
        beta, g = veh.slip_and_gain(GEOM, 0.2)
        omega = (cs.v / GEOM.l_r) * math.sin(beta) + g * cs.u_applied
        assert cs.u_applied != 0.0
        assert cs.kappa_e_inst == pytest.approx(omega / cs.v)

    def test_target_rate_blends_curvatures(self):
        # shadow on the straight piece, look-ahead on the arc
        line = ReferenceLine.from_pieces(
            0.0, 0.0, 0.0, [("line", 20.0), ("arc", 50.0, 0.02)]
        )
        params = base_params(alpha=0.5, delta_d0=10.0)
        cs, dtheta_dot = ctl.plan_step(
            line, GEOM, VehicleState(15.0, 0.0, 0.0, 0.0), params, 0.0)
        assert dtheta_dot == cs.kappa_e_inst * cs.v
        # aligned with the line, so the yaw and lateral-rate terms of u_s
        # vanish and u_s is the target rate over the steering gain
        g = veh.slip_and_gain(GEOM, 0.0)[1]
        assert cs.u_s == pytest.approx(0.5 * params.v_s * 0.02 / g)
