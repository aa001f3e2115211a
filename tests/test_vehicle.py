import copy
import inspect
import math
import pickle
import re

import pytest
from hypothesis import example, given, strategies as st

from lanesteer import sim
from lanesteer import vehicle as veh
from lanesteer.control import PlannerParams
from lanesteer.errors import NumericBlowupError, SteeringDomainError
from lanesteer.refline import ArcSegment, StraightSegment, wrap_angle
from lanesteer.vehicle import VehicleGeometry, VehicleState

GEOM = VehicleGeometry(l_f=1.2, l_r=1.6)

deltas = st.floats(-1.4, 1.4)


def beta_of(d):
    return veh.slip_and_gain(GEOM, d)[0]


def gain_of(d):
    return veh.slip_and_gain(GEOM, d)[1]


class TestSlipAngle:
    def test_zero_at_zero(self):
        assert beta_of(0.0) == 0.0

    def test_known_value(self):
        # tan(beta) = l_r tan(delta) / (l_f + l_r)
        beta = beta_of(0.3)
        assert beta == pytest.approx(math.atan(1.6 * math.tan(0.3) / 2.8))

    @given(deltas)
    def test_odd(self, d):
        assert beta_of(-d) == pytest.approx(-beta_of(d))

    @given(deltas)
    def test_magnitude_below_delta(self, d):
        # rear axle is closer than the wheelbase, so |beta| < |delta|
        assert abs(beta_of(d)) <= abs(d)

    def test_domain_boundary(self):
        for d in (math.pi / 2, -math.pi / 2, 2.0, math.nan):
            with pytest.raises(SteeringDomainError):
                veh.slip_and_gain(GEOM, d)


class TestSteeringGain:
    @given(deltas)
    def test_matches_finite_difference(self, d):
        eps = 1e-6
        if abs(d) + eps >= math.pi / 2:
            return
        fd = (beta_of(d + eps) - beta_of(d - eps)) / (2 * eps)
        assert gain_of(d) == pytest.approx(fd, rel=1e-6, abs=1e-9)

    @given(deltas)
    def test_strictly_positive(self, d):
        assert gain_of(d) > 0.0

    def test_value_at_zero(self):
        assert gain_of(0.0) == pytest.approx(1.6 / 2.8)


class TestDerivatives:
    # the right-hand side seen through one short step

    def test_straight_rolling(self):
        state = veh.step(GEOM, VehicleState(0.0, 0.0, 0.0, 0.0), 2.0, 0.0, 0.5)
        assert (state.x, state.y, state.psi, state.delta) == (1.0, 0.0, 0.0, 0.0)

    def test_heading_uses_velocity_orientation(self):
        h = 1e-6
        state = veh.step(GEOM, VehicleState(0.0, 0.0, 0.5, 0.2), 1.0, 0.0, h)
        beta = beta_of(0.2)
        assert state.x / h == pytest.approx(math.cos(0.5 + beta))
        assert state.y / h == pytest.approx(math.sin(0.5 + beta))

    def test_omega_combines_yaw_and_slip_rate(self):
        # d(psi + beta)/dt = (v / l_r) sin(beta) + g(delta) u
        h = 1e-6
        state = veh.step(GEOM, VehicleState(0.0, 0.0, 0.0, 0.2), 1.5, 0.4, h)
        beta = beta_of(0.2)
        w = (state.psi + beta_of(state.delta) - beta) / h
        expected = (1.5 / GEOM.l_r) * math.sin(beta) + gain_of(0.2) * 0.4
        assert w == pytest.approx(expected)


class TestStep:
    def test_constant_delta_traces_circle(self):
        # with u = 0 the CoG moves on a circle of curvature sin(beta)/l_r
        delta = 0.25
        beta = beta_of(delta)
        kappa = math.sin(beta) / GEOM.l_r
        state = VehicleState(0.0, 0.0, -beta, delta)
        h, v = 1e-3, 1.0
        for _ in range(2000):
            state = veh.step(GEOM, state, v, 0.0, h)
        # analytic circle through the start with heading 0
        radius = 1.0 / kappa
        cx, cy = 0.0, radius
        assert math.hypot(state.x - cx, state.y - cy) == pytest.approx(
            radius, rel=1e-9
        )

    def test_rk4_order(self):
        # halving h must shrink the error by about 2^4
        def end_error(h):
            state = VehicleState(0.0, 0.0, 0.0, 0.0)
            n = round(1.0 / h)
            for _ in range(n):
                state = veh.step(GEOM, state, 1.0, 0.3, h)
            return state

        a = end_error(0.02)
        b = end_error(0.01)
        ref = end_error(0.00125)
        ea = math.hypot(a.x - ref.x, a.y - ref.y)
        eb = math.hypot(b.x - ref.x, b.y - ref.y)
        assert ea / eb > 8.0

    def test_rk4_order_on_exact_circle(self):
        # with u = 0 the CoG follows a circle of radius R = l_r / sin(beta);
        # the global error of classical RK4 shrinks 2^4 = 16x per halving of h
        # (Hairer, Norsett & Wanner, Solving ODEs I)
        delta, v, t_end = 0.25, 1.0, 4.0
        beta = beta_of(delta)
        radius = GEOM.l_r / math.sin(beta)
        w = v / radius
        exact = (radius * math.sin(w * t_end), radius * (1.0 - math.cos(w * t_end)))

        def end_error(h):
            state = VehicleState(0.0, 0.0, -beta, delta)
            for _ in range(round(t_end / h)):
                state = veh.step(GEOM, state, v, 0.0, h)
            return math.hypot(state.x - exact[0], state.y - exact[1])

        errors = [end_error(h) for h in (0.2, 0.1, 0.05)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 14.0 <= coarse / fine <= 18.0

    def test_delta_clamped(self):
        geom = VehicleGeometry(l_f=1.2, l_r=1.6, delta_max=0.1)
        state = VehicleState(0.0, 0.0, 0.0, 0.09)
        state = veh.step(geom, state, 1.0, 5.0, 0.1)
        assert state.delta == geom.delta_max

    def test_psi_stays_wrapped(self):
        state = VehicleState(0.0, 0.0, 3.1, 0.4)
        for _ in range(500):
            state = veh.step(GEOM, state, 2.0, 0.0, 0.01)
            assert -math.pi < state.psi <= math.pi

    @pytest.mark.parametrize("v, delta", [
        (1e307, 0.1),  # cos of an infinite stage heading
        (1.7e306, 0.59),  # remainder of an infinite psi
    ])
    def test_overflowed_heading_is_numeric_blowup(self, v, delta):
        # v / l_r overflows: math-domain errors become the typed failure
        geom = VehicleGeometry(l_f=0.01, l_r=0.01)
        with pytest.raises(NumericBlowupError, match="non-finite state"):
            veh.step(geom, VehicleState(0.0, 0.0, 0.0, delta), v, 0.0, 1e-3)

    @pytest.mark.parametrize("state, v, h", [
        # x + v h overflows, heading along x, then along y
        (VehicleState(1.79e308, 0.0, 0.0, 0.0), 1e306, 1.0),
        (VehicleState(0.0, 1.79e308, math.pi / 2, 0.0), 1e306, 1.0),
        # cos, sin and remainder return NaN for a NaN heading, raising nothing
        (VehicleState(0.0, 0.0, math.nan, 0.0), 1.0, 0.01),
    ], ids=["x", "y", "nan_psi"])
    def test_non_finite_state_is_numeric_blowup(self, state, v, h):
        with pytest.raises(NumericBlowupError, match="non-finite state"):
            veh.step(GEOM, state, v, 0.0, h)

    def test_bad_step_size(self):
        with pytest.raises(ValueError):
            veh.step(GEOM, VehicleState(0, 0, 0, 0), 1.0, 0.0, 0.0)


class TestGeometryValidation:
    def test_positive_axles_required(self):
        with pytest.raises(ValueError):
            VehicleGeometry(l_f=0.0, l_r=1.0)
        # l_r / (l_f + l_r) underflows to 0, and with it the steering gain
        with pytest.raises(ValueError, match="ratio"):
            VehicleGeometry(l_f=1e10, l_r=5e-324)

    def test_delta_max_range(self):
        with pytest.raises(ValueError):
            VehicleGeometry(l_f=1.0, l_r=1.0, delta_max=2.0)

    @pytest.mark.parametrize("l_f, l_r", [
        (1.2, 1.6), (1.5, 1.5), (0.1, 3.0), (1e10, 1e-300), (1e-300, 1e10),
        (5e-324, 5e-324), (1.7976931348623157e308, 1.0),
    ])
    def test_ratio_is_the_axle_ratio(self, l_f, l_r):
        geom = VehicleGeometry(l_f=l_f, l_r=l_r)
        assert geom.ratio.hex() == (l_r / (l_f + l_r)).hex()

    def test_ratio_follows_replace_and_override(self):
        moved = GEOM._replace(l_r=2.0)
        assert moved.ratio.hex() == (2.0 / (1.2 + 2.0)).hex()
        sc = sim.Scenario(
            track=sim.Track(0.0, 0.0, 0.0, (("line", 50.0),)),
            geometry=GEOM, params=PlannerParams(k=0.5, lam=1.0),
            initial_state=VehicleState(0.0, 0.0, 0.0), duration=1.0,
        )
        sc = sim.apply_override(sc, "vehicle.l_r_m", 2.0)
        assert sc.geometry.ratio.hex() == (2.0 / (1.2 + 2.0)).hex()

    def test_ratio_outside_equality_hash_repr_and_signature(self):
        other = VehicleGeometry(l_f=1.2, l_r=1.6)
        object.__setattr__(other, "ratio", 0.25)
        assert other == GEOM and hash(other) == hash(GEOM)
        assert repr(other) == repr(GEOM) and "ratio" not in repr(GEOM)
        # scenario_io derives the [vehicle] keys from this signature
        assert list(inspect.signature(VehicleGeometry).parameters) == [
            "l_f", "l_r", "delta_max", "u_max"
        ]


class TestValueSemantics:
    """VehicleGeometry and the two segment kinds behave as the frozen
    dataclasses they replaced: the reprs below were taken from those."""

    VALUES = [
        (GEOM, "VehicleGeometry(l_f=1.2, l_r=1.6, delta_max=0.6, u_max=1.0)"),
        (VehicleGeometry(l_f=1e-300, l_r=5e-324, delta_max=0.5, u_max=2.0),
         "VehicleGeometry(l_f=1e-300, l_r=5e-324, delta_max=0.5, u_max=2.0)"),
        (StraightSegment(1.0, 2.0, 0.3, 10.0),
         "StraightSegment(x0=1.0, y0=2.0, heading=0.3, length=10.0)"),
        (StraightSegment(-0.0, math.inf, 7, 1e300),
         "StraightSegment(x0=-0.0, y0=inf, heading=7, length=1e+300)"),
        (ArcSegment(0.0, 0.0, 20.0, 0.0, 0.5),
         "ArcSegment(cx=0.0, cy=0.0, radius=20.0, start_angle=0.0, sweep=0.5)"),
        (ArcSegment(1, -2.5, 3.25, -0.1, -1e-9),
         "ArcSegment(cx=1, cy=-2.5, radius=3.25, start_angle=-0.1, sweep=-1e-09)"),
    ]
    SIGNATURES = {
        VehicleGeometry: "(l_f: 'float', l_r: 'float', delta_max: 'float' = 0.6, "
                         "u_max: 'float' = 1.0)",
        StraightSegment: "(x0: 'float', y0: 'float', heading: 'float', length: 'float')",
        ArcSegment: "(cx: 'float', cy: 'float', radius: 'float', start_angle: 'float', "
                    "sweep: 'float')",
    }

    @pytest.mark.parametrize("value, text", VALUES)
    def test_repr_hash_and_equality(self, value, text):
        assert repr(value) == text
        fields = tuple(getattr(value, name) for name in value.__match_args__)
        assert hash(value) == hash(fields)
        assert value == type(value)(*fields)
        assert value != fields and value != object()

    @pytest.mark.parametrize("value, text", VALUES)
    def test_copies_are_equal_and_rebuilt(self, value, text):
        for other in (copy.copy(value), pickle.loads(pickle.dumps(value))):
            assert type(other) is type(value) and other is not value
            assert other == value and repr(other) == text
            assert all(getattr(other, name) == getattr(value, name)
                       for name in type(value).__slots__)

    @pytest.mark.parametrize("value, text", VALUES)
    def test_fields_cannot_be_assigned_or_deleted(self, value, text):
        assert not hasattr(value, "__dict__")
        for name in (*type(value).__slots__, "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, 1.0)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert repr(value) == text

    @pytest.mark.parametrize("cls", sorted(SIGNATURES, key=lambda c: c.__name__))
    def test_signature(self, cls):
        assert str(inspect.signature(cls)) == self.SIGNATURES[cls]

    def test_unequal_across_kinds(self):
        a, b = StraightSegment(0.0, 0.0, 0.0, 1.0), StraightSegment(0.0, 0.0, 0.0, 2.0)
        assert a != b and a != ArcSegment(0.0, 0.0, 1.0, 0.0, 1.0)


def textbook_rk4(geom, state, v, u, h):
    """Reference RK4 step: four calls of one stage function, no sharing."""
    ratio = geom.l_r / (geom.l_f + geom.l_r)
    v_lr = v / geom.l_r

    def f(psi, delta):
        if not abs(delta) < math.pi / 2:
            raise SteeringDomainError(f"front-wheel angle {delta} outside (-pi/2, pi/2)")
        beta = math.atan(ratio * math.tan(delta))
        heading = psi + beta
        return v * math.cos(heading), v * math.sin(heading), v_lr * math.sin(beta)

    x0, y0, psi0, d0 = state.x, state.y, state.psi, state.delta
    ax1, ay1, ap1 = f(psi0, d0)
    ax2, ay2, ap2 = f(psi0 + 0.5 * h * ap1, d0 + 0.5 * h * u)
    ax3, ay3, ap3 = f(psi0 + 0.5 * h * ap2, d0 + 0.5 * h * u)
    ax4, ay4, ap4 = f(psi0 + h * ap3, d0 + h * u)
    h6 = h / 6.0
    x = x0 + h6 * (ax1 + 2.0 * (ax2 + ax3) + ax4)
    y = y0 + h6 * (ay1 + 2.0 * (ay2 + ay3) + ay4)
    psi = psi0 + h6 * (ap1 + 2.0 * (ap2 + ap3) + ap4)
    delta = min(max(d0 + h * u, -geom.delta_max), geom.delta_max)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(psi)):
        raise NumericBlowupError("integration produced a non-finite state")
    return VehicleState(x, y, wrap_angle(psi), delta)


# psi near +-pi so that a step can wrap it, delta near +-delta_max so that it
# clamps, and delta near +-pi/2 so that a stage leaves the steering domain
oracle_states = st.builds(
    VehicleState,
    x=st.floats(-1e3, 1e3),
    y=st.floats(-1e3, 1e3),
    psi=st.one_of(st.floats(-math.pi, math.pi), st.floats(3.0, math.pi),
                  st.floats(-math.pi, -3.0)),
    delta=st.one_of(st.floats(-0.6, 0.6), st.floats(0.55, 0.6),
                    st.floats(-0.6, -0.55), st.floats(-1.57, 1.57)),
)


class TestStepOracle:
    @given(
        oracle_states,
        st.floats(0.0, 30.0),
        st.floats(-1.0, 1.0),
        st.floats(1e-4, 0.05),
    )
    # clamps: 0.59 + 0.05 * 1.0 > delta_max = 0.6
    @example(VehicleState(0.0, 0.0, 0.0, 0.59), 1.0, 1.0, 0.05)
    # wraps: psi rate (20 / 1.6) sin(beta(0.5)) times 0.05 carries 3.13 past pi
    @example(VehicleState(0.0, 0.0, 3.13, 0.5), 20.0, 0.0, 0.05)
    # leaves the steering domain in the last stage only: 1.55 + 0.04 > pi/2
    @example(VehicleState(0.0, 0.0, 0.0, 1.55), 1.0, 1.0, 0.04)
    # lands exactly on the clamp: 0.58 + 0.02 * 1.0 == delta_max, and mirrored
    @example(VehicleState(0.0, 0.0, 0.0, 0.58), 1.0, 1.0, 0.02)
    @example(VehicleState(0.0, 0.0, 0.0, -0.58), 1.0, -1.0, 0.02)
    # -0.0 + 0.01 * -0.0 is -0.0, which the clamp must keep
    @example(VehicleState(0.0, 0.0, 0.0, -0.0), 1.0, -0.0, 0.01)
    # starts outside the steering domain: the message names the start angle
    # 1.6, not the midpoint's 1.595
    @example(VehicleState(0.0, 0.0, 0.0, 1.6), 1.0, -1.0, 0.01)
    def test_step_matches_textbook_rk4_bit_for_bit(self, state, v, u, h):
        try:
            expected = textbook_rk4(GEOM, state, v, u, h)
        except SteeringDomainError as exc:
            with pytest.raises(SteeringDomainError, match=re.escape(str(exc))):
                veh.step(GEOM, state, v, u, h)
            return
        got = veh.step(GEOM, state, v, u, h)
        # float.hex, since == takes -0.0 for 0.0
        assert [a.hex() for a in got] == [b.hex() for b in expected]
