"""Error state, speed coupling, and the stabilizing + optimal steering law.

The controller drives a sliding-surface error

    e = (theta_v - theta_target) - k * lateral

to zero, where theta_target blends the shadow-point orientation with a
look-ahead way-point orientation.  The front-wheel rate is decomposed as
u = u_s + u_c: u_s cancels the known kinematics so that de/dt equals the
gain times u_c, and u_c is the scalar LQR feedback -e/sqrt(lambda).
"""

from __future__ import annotations

import math
from math import isfinite
from typing import NamedTuple

from . import vehicle as veh
from .errors import (
    GeometryDegenerateError, NumericBlowupError, ShadowRegularityError,
)
from .refline import ReferenceLine, wrap_angle
from .vehicle import VehicleGeometry, VehicleState

# minimum alignment <x_s, x_v> before the speed coupling is declared degenerate
EPS_ALIGN = 0.1

# builds a record without the NamedTuple constructor's Python-level __new__
_tuple_new = tuple.__new__


# the fields of PlannerParams: a NamedTuple body may not define __new__ or
# _make, so PlannerParams subclasses this one
class _PlannerFields(NamedTuple):
    k: float  # 1/m, manifold gain
    lam: float  # s^2, LQR balance
    alpha: float = 0.0  # two-point blend weight
    delta_d0: float = 0.0  # m, look-ahead distance
    v_s: float = 1.0  # m/s, constant speed plan along the line


class PlannerParams(_PlannerFields):
    """Planner gains and speed plan.  The safety limits and the lane width
    only constrain their choice, so the analysis checks take those.

    A 5-tuple whose one constructor checks every field, so that `_make`,
    `_replace`, copies and unpickling validate too.
    """

    __slots__ = ()

    # repeats the defaults of _PlannerFields, whose __new__ this replaces
    def __new__(cls, k, lam, alpha=0.0, delta_d0=0.0, v_s=1.0):
        # comparisons are written so that NaN fails them
        if not 0 < k < math.inf:
            raise ValueError("k must be positive and finite")
        if not 0 < lam < math.inf:
            raise ValueError("lambda must be positive and finite")
        if not 0 <= alpha < 1:
            raise ValueError("alpha must lie in [0, 1)")
        if not 0 <= delta_d0 < math.inf:
            raise ValueError("delta_d0 must be nonnegative and finite")
        if not 0 < v_s < math.inf:
            raise ValueError("v_s must be positive and finite")
        return _tuple_new(cls, (k, lam, alpha, delta_d0, v_s))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def gamma(self) -> float:
        """Corner-cutting parameter alpha * k * delta_d0."""
        return self.alpha * self.k * self.delta_d0

    @property
    def lambda0(self) -> float:
        """Mode ratio k * v_s * sqrt(lam), checked by `check_oscillation`."""
        return self.k * self.v_s * math.sqrt(self.lam)


class Sample(NamedTuple):
    """One control period's record: the state at its start and what plan_step
    made of it.  The fields, in order, are the CSV columns."""

    t: float
    x: float
    y: float
    psi: float
    delta: float
    beta: float  # slip angle at the sampled state
    theta_v: float  # velocity orientation psi + beta, wrapped
    theta_n: float
    theta_f: float
    e: float
    d_lateral: float  # <y_s, r>
    d_lateral_rate: float  # -v sin(theta_v - theta_n)
    u_s: float
    u_c: float
    u_applied: float
    v: float
    kappa_e_inst: float  # path curvature under u_applied: omega / v


def error_two_point(
    theta_v: float,
    theta_n: float,
    theta_f: float,
    lateral: float,
    k: float,
    alpha: float,
) -> float:
    """Two-point error with the blended near/far target orientation.

    The blend is computed on the wrapped near-to-far difference so the
    result is insensitive to branch cuts; alpha = 0 reduces exactly to
    the one-point error.
    """
    blend = theta_n + alpha * wrap_angle(theta_f - theta_n)
    return wrap_angle(theta_v - blend) - k * lateral


def vehicle_speed(v_s: float, lateral_term: float, alignment: float) -> float:
    """Vehicle speed that keeps the ray to the shadow point orthogonal.

    lateral_term is <r, y_s> * kappa; alignment is <x_s, x_v>.
    """
    if alignment <= EPS_ALIGN:
        raise GeometryDegenerateError(
            f"vehicle near-perpendicular to the line (alignment {alignment:.3f})"
        )
    numerator = 1.0 + lateral_term
    if numerator <= 0:
        raise ShadowRegularityError(
            "vehicle at or beyond the center of curvature of the shadow point"
        )
    return v_s * numerator / alignment


def plan_step(
    line: ReferenceLine,
    geom: VehicleGeometry,
    state: VehicleState,
    params: PlannerParams,
    t: float,
) -> tuple[Sample, float]:
    """One full control evaluation: project, look ahead, couple the speed,
    form the error, and emit the saturated wheel-rate command.

    Returns the Sample of the period that starts at time t in `state`, and
    the orientation-difference rate d(theta_v - theta_n)/dt =
    kappa_e * v - v_s * kappa_n, since the shadow point advances at v_s.

    The wheel rate is u_s + u_c.  The feed-forward u_s cancels the
    slip-angle kinematics, tracks the target orientation rate, and cancels
    the lateral-rate coupling k*v*sin(delta_theta); the LQR feedback is
    u_c = -e / (g * sqrt(lam)) with g = d(beta)/d(delta).
    """
    x, y, psi, delta = state
    k, lam, alpha, delta_d0, v_s = params
    beta, g = veh.slip_and_gain(geom, delta)
    theta_v = wrap_angle(psi + beta)
    near, lateral = line.project((x, y))
    theta_n, kappa_n = near.orientation, near.curvature
    # with no look-ahead the far point is the shadow point: the same station,
    # already checked against the line, so the same frame
    far = near if delta_d0 == 0 else line.lookahead(near.station, delta_d0)
    theta_f, kappa_f = far.orientation, far.curvature

    delta_theta = wrap_angle(theta_v - theta_n)
    alignment = math.cos(delta_theta)
    sin_dt = math.sin(delta_theta)
    v = vehicle_speed(v_s, lateral * kappa_n, alignment)

    e = error_two_point(theta_v, theta_n, theta_f, lateral, k, alpha)
    theta_dot_ref = (1.0 - alpha) * v_s * kappa_n + alpha * v_s * kappa_f
    yaw_rate = (v / geom.l_r) * math.sin(beta)
    # delta_theta must be the unblended theta_v - theta_n: the lateral
    # deviation evolves with the shadow-point orientation regardless of the
    # look-ahead blend, and using the blended difference here would leave a
    # residual in the error dynamics on curved lanes
    try:
        u_s = (-yaw_rate + theta_dot_ref - k * v * sin_dt) / g
        u_c = -e / (g * math.sqrt(lam))
        u_applied = u_s + u_c
        # before the clamp, which would hide an infinite command
        if not isfinite(u_applied):
            raise NumericBlowupError("control law produced a non-finite command")
        u_max = geom.u_max
        if u_applied > u_max:
            u_applied = u_max
        elif u_applied < -u_max:
            u_applied = -u_max
        kappa_e = (yaw_rate + g * u_applied) / v
    except ZeroDivisionError:
        # the steering gain, its product with sqrt(lam), or the speed
        # underflowed to zero
        raise NumericBlowupError("control law divided by zero") from None
    if not isfinite(kappa_e):
        raise NumericBlowupError("control law produced a non-finite path curvature")
    return _tuple_new(Sample, (
        t, x, y, psi, delta, beta, theta_v, theta_n, theta_f, e, lateral,
        -v * sin_dt, u_s, u_c, u_applied, v, kappa_e,
    )), kappa_e * v - v_s * kappa_n
