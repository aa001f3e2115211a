"""Closed-form lane-change transient of the linearized closed loop.

For a lane change started aligned, with initial error e0, the orientation
difference dtheta(t) is a sum of a fast mode exp(-t/sqrt(lam)) and a slow
mode exp(-lambda0 t/sqrt(lam)).  The package does not call these: the
abort-safety check keeps its own closed form of the peak, so tests can
compare the two independent expressions, and compare runs against the
transient itself.
"""

import math
from typing import NamedTuple


class LinearizedPrediction(NamedTuple):
    """Peak magnitudes of the linearized lane-change transient and their times."""

    peak_dtheta: float
    peak_dtheta_dot: float
    peak_time_dtheta: float
    peak_time_dtheta_dot: float


def dtheta_solution(t: float, e0: float, lam: float, lambda0: float) -> float:
    """Orientation-difference transient for a lane change started aligned."""
    a = 1.0 / math.sqrt(lam)
    return (e0 / (1.0 - lambda0)) * (math.exp(-a * t) - math.exp(-lambda0 * a * t))


def dtheta_dot_solution(t: float, e0: float, lam: float, lambda0: float) -> float:
    """Time derivative of the orientation-difference transient."""
    a = 1.0 / math.sqrt(lam)
    return (
        -(e0 / (math.sqrt(lam) * (1.0 - lambda0)))
        * (math.exp(-a * t) - lambda0 * math.exp(-lambda0 * a * t))
    )


def predict_lane_change(e0: float, lam: float, lambda0: float) -> LinearizedPrediction:
    """Interior extrema of the closed-form lane-change transient: dtheta
    peaks at t* = sqrt(lam) log(lambda0) / (lambda0 - 1) and its rate at 2 t*.

    The rate magnitude at t = 0, |e0|/sqrt(lam), exceeds the interior
    extremum for every lambda0 in (0, 1).
    """
    if not 0 < lambda0 < 1:
        raise ValueError("lambda0 must lie in (0, 1)")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    t_peak = math.sqrt(lam) * math.log(lambda0) / (lambda0 - 1.0)
    return LinearizedPrediction(
        peak_dtheta=abs(dtheta_solution(t_peak, e0, lam, lambda0)),
        peak_dtheta_dot=abs(dtheta_dot_solution(2.0 * t_peak, e0, lam, lambda0)),
        peak_time_dtheta=t_peak,
        peak_time_dtheta_dot=2.0 * t_peak,
    )


def worst_abort_dtheta_dot(e0: float, lam: float, lambda0: float) -> float:
    """The largest |dtheta/dt| of the lane change over all abort times:
    |e0|/sqrt(lam) (1 + lambda0^((1 + lambda0)/(1 - lambda0))).

    While the loop is linear, the response after an abort at tau is the
    plain one minus a copy of it started at tau.  The copy's rate starts at
    its largest magnitude, |e0|/sqrt(lam), with the sign opposite to the
    plain rate's interior extremum at 2 t*, |e0|/sqrt(lam) lambda0^((1 +
    lambda0)/(1 - lambda0)); an abort at 2 t* adds the two.
    """
    if not 0 < lambda0 < 1:
        raise ValueError("lambda0 must lie in (0, 1)")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    interior = lambda0 ** ((1.0 + lambda0) / (1.0 - lambda0))
    return abs(e0) / math.sqrt(lam) * (1.0 + interior)
