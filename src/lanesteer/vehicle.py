"""Kinematic bicycle model: slip angle, actuation gain, RK4 stepping.

State is (x, y, psi, delta) with the front-wheel rate as the input; the
slip angle beta is always derived from delta, never stored.
"""

from __future__ import annotations

import math
from math import atan, cos, isfinite, pi, remainder, sin, tan, tau
from typing import NamedTuple

from .errors import NumericBlowupError, SteeringDomainError
from .frozen import Frozen


class VehicleGeometry(Frozen):
    """Axle distances from the center of gravity, plus actuator limits."""

    __match_args__ = ("l_f", "l_r", "delta_max", "u_max")
    # the fields, then ratio = l_r / (l_f + l_r), derived once
    __slots__ = (*__match_args__, "ratio")

    def __init__(self, l_f: float, l_r: float,
                 delta_max: float = 0.6,  # rad
                 u_max: float = 1.0):  # rad/s
        if not (0 < l_f < math.inf and 0 < l_r < math.inf):
            raise ValueError("axle distances must be positive and finite")
        ratio = l_r / (l_f + l_r)
        # a ratio that underflows to 0 zeroes the steering gain
        if not ratio > 0:
            raise ValueError("axle ratio l_r / (l_f + l_r) must be positive")
        if not (0 < delta_max < math.pi / 2):
            raise ValueError("delta_max must be in (0, pi/2)")
        if not 0 < u_max < math.inf:
            raise ValueError("u_max must be positive and finite")
        self._fill(l_f, l_r, delta_max, u_max, ratio)


class VehicleState(NamedTuple):
    x: float
    y: float
    psi: float
    delta: float = 0.0


_HALF_PI = math.pi / 2

# builds a record without the NamedTuple constructor's Python-level __new__;
# the caller supplies every field, in order
_tuple_new = tuple.__new__


def slip_and_gain(geom: VehicleGeometry, delta: float) -> tuple[float, float]:
    """Slip angle beta of the center of gravity for a front-wheel angle, and
    g = d(beta)/d(delta), how fast it responds to the wheel angle.

    g is strictly positive on the domain, so the velocity orientation is
    always controllable through the front wheel.
    """
    if not abs(delta) < _HALF_PI:
        raise SteeringDomainError(f"front-wheel angle {delta} outside (-pi/2, pi/2)")
    l_r = geom.l_r
    wheelbase = geom.l_f + l_r
    t = l_r * tan(delta) / wheelbase
    return atan(t), geom.ratio / ((1.0 + t * t) * cos(delta) ** 2)


def step(
    geom: VehicleGeometry, state: VehicleState, v: float, u: float, h: float
) -> VehicleState:
    """One classical RK4 step; delta is clamped to the actuator range and
    psi re-wrapped afterwards.

    The right-hand side is (v cos(psi + beta), v sin(psi + beta),
    (v / l_r) sin(beta), u) with beta = atan(ratio * tan(delta)).  u is
    constant over the step, so stages 2 and 3 share the midpoint wheel
    angle and its slip angle.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    x0, y0, psi0, d0 = state
    ratio = geom.ratio
    v_lr = v / geom.l_r
    hh = 0.5 * h

    # slip_and_gain's domain check, written out per stage: a call costs
    # about as much as the stage's arithmetic
    d_mid = d0 + hh * u
    d_end = d0 + h * u
    if not abs(d0) < _HALF_PI:
        raise SteeringDomainError(f"front-wheel angle {d0} outside (-pi/2, pi/2)")
    if not abs(d_mid) < _HALF_PI:
        raise SteeringDomainError(f"front-wheel angle {d_mid} outside (-pi/2, pi/2)")
    if not abs(d_end) < _HALF_PI:
        raise SteeringDomainError(f"front-wheel angle {d_end} outside (-pi/2, pi/2)")

    # cos, sin and remainder raise ValueError on a heading that overflowed to
    # inf; the try block costs nothing until it raises
    try:
        beta = atan(ratio * tan(d0))
        heading = psi0 + beta
        ax1, ay1, ap1 = v * cos(heading), v * sin(heading), v_lr * sin(beta)

        beta = atan(ratio * tan(d_mid))
        ap_mid = v_lr * sin(beta)
        heading = psi0 + hh * ap1 + beta
        ax2, ay2 = v * cos(heading), v * sin(heading)
        heading = psi0 + hh * ap_mid + beta
        ax3, ay3 = v * cos(heading), v * sin(heading)

        beta = atan(ratio * tan(d_end))
        heading = psi0 + h * ap_mid + beta
        ax4, ay4, ap4 = v * cos(heading), v * sin(heading), v_lr * sin(beta)

        h6 = h / 6.0
        x = x0 + h6 * (ax1 + 2.0 * (ax2 + ax3) + ax4)
        y = y0 + h6 * (ay1 + 2.0 * (ay2 + ay3) + ay4)
        psi = psi0 + h6 * (ap1 + 2.0 * (ap_mid + ap_mid) + ap4)
        # wrap_angle, inline
        psi = remainder(psi, tau)
        if psi <= -pi:
            psi += tau
    except ValueError:
        raise NumericBlowupError("integration produced a non-finite state") from None
    # the actuator clamp as two comparisons: min(max()) gives the same value,
    # -0.0 and NaN for two builtin calls more per substep
    delta_max = geom.delta_max
    if d_end > delta_max:
        d_end = delta_max
    elif d_end < -delta_max:
        d_end = -delta_max
    if not (isfinite(x) and isfinite(y) and isfinite(psi)):
        raise NumericBlowupError("integration produced a non-finite state")
    return _tuple_new(VehicleState, (x, y, psi, d_end))
