"""Closed-form predictions and parameter feasibility checks.

Everything here is algebra on the planner parameters: linearized
lane-change transients with their peak bounds, the oscillation-avoidance
range of lambda0 = k v_s sqrt(lambda), the corner-cutting parameter window,
and a grid search combining all of it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .control import PlannerParams

GAMMA_LOWER = (math.sqrt(5.0) - 1.0) / 2.0


class CheckRow(NamedTuple):
    name: str
    lhs: float
    comparator: str
    rhs: float
    satisfied: bool


class CheckResult(NamedTuple):
    name: str
    rows: tuple[CheckRow, ...]
    applicable: bool = True

    @property
    def satisfied(self) -> bool:
        return all(r.satisfied for r in self.rows)


class LinearizedPrediction(NamedTuple):
    """Peak magnitudes of the linearized lane-change transient and their times."""

    peak_dtheta: float
    peak_dtheta_dot: float
    peak_time_dtheta: float
    peak_time_dtheta_dot: float


class FeasibilityReport(NamedTuple):
    params: PlannerParams
    checks: tuple[CheckResult, ...]
    feasible: bool
    predicted_curvature_ratio: float


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


def _abort_terms(lam, lambda0, c1, c2, v, lane_width):
    """Abort-safety peak (1/sqrt(lam)) exp(log lambda0 / (1 - lambda0)) and
    its two limits c1 v / W and sqrt(c2 v / W)."""
    lhs = (1.0 / math.sqrt(lam)) * math.exp(math.log(lambda0) / (1.0 - lambda0))
    return lhs, c1 * v / lane_width, math.sqrt(c2 * v / lane_width)


def _corner_k_bounds(gamma, kappa0, c3):
    """Corner-cutting window k_lower < k < k_upper; k_upper is nan unless
    0 < gamma < 1."""
    ak0 = abs(kappa0)
    k_lower = max(ak0 * math.sqrt(1.0 + gamma), math.sqrt(gamma * ak0 / c3))
    k_upper = ak0 / math.sqrt(1.0 / gamma - 1.0) if 0 < gamma < 1 else math.nan
    return k_lower, k_upper


def check_oscillation(params: PlannerParams) -> CheckResult:
    """Fast/slow mode split: lambda0 = k v_s sqrt(lam) must lie in (0, 1)."""
    lambda0 = params.lambda0
    row = CheckRow("lambda0_range", lambda0, "in (0, 1)", 1.0, 0.0 < lambda0 < 1.0)
    return CheckResult("oscillation", (row,))


def check_abort_safety(
    params: PlannerParams, v: float, lane_width: float, c1: float, c2: float
) -> CheckResult:
    """Peak orientation-difference bounds c1 (rad) and c2 (rad/s) for an
    abortable lane change across a lane of width W = lane_width.

    Uses |e0| = k * W.  The returned rows report both limit branches
    individually so the binding one is visible.
    """
    if not 0 < params.lambda0 < 1:
        raise ValueError("lambda0 must lie in (0, 1)")
    lhs, rhs1, rhs2 = _abort_terms(params.lam, params.lambda0, c1, c2, v, lane_width)
    rows = (
        CheckRow("abort_peak_vs_c1", lhs, "<=", rhs1, lhs <= rhs1),
        CheckRow("abort_peak_vs_c2", lhs, "<=", rhs2, lhs <= rhs2),
    )
    return CheckResult("abort_safety", rows)


def check_corner_cutting(
    params: PlannerParams, kappa0: float, c3: float
) -> CheckResult:
    """Parameter window from the constant-curvature corner analysis, with
    c3 (m) the bound on the steady lateral deviation.

    Not applicable (vacuously satisfied) on a straight lane.
    """
    if kappa0 == 0:
        return CheckResult("corner_cutting", (), applicable=False)
    gamma = params.gamma
    k_lower, k_upper = _corner_k_bounds(gamma, kappa0, c3)
    steady = abs(predict_steady_lateral(params, kappa0))
    rows = (
        CheckRow("gamma_range", gamma, "in", GAMMA_LOWER,
                 GAMMA_LOWER < gamma < 1.0),
        CheckRow("k_above_lower", k_lower, "<", params.k, k_lower < params.k),
        CheckRow("k_below_upper", params.k, "<", k_upper,
                 bool(params.k < k_upper) if not math.isnan(k_upper) else False),
        CheckRow("steady_lateral_bound", steady, "<", c3, steady < c3),
    )
    return CheckResult("corner_cutting", rows)


def predict_curvature_ratio(params: PlannerParams, kappa0: float) -> float:
    """Linearized corner-cutting ranking quantity v_s/v - gamma.

    v_s/v = 1/(1 - alpha*delta_d0*kappa0^2/k) is the speed ratio at the
    steady offset.  This value orders the feasible sets of `find_feasible`
    and is the CLI's `ratio=` field; it is not the steady path-curvature
    ratio of a run, which is v_s/v itself (the vehicle then drives a
    concentric circle of curvature kappa0 / (1 + d*kappa0) at the steady
    offset d of `predict_steady_lateral`).
    """
    denom = 1.0 - params.alpha * params.delta_d0 * kappa0 ** 2 / params.k
    if abs(denom) < 1e-12:
        raise ValueError("speed-ratio denominator vanishes for these parameters")
    vs_over_v = 1.0 / denom
    return vs_over_v * (1.0 - params.gamma / vs_over_v)


def predict_steady_lateral(params: PlannerParams, kappa0: float) -> float:
    """Steady-state lateral deviation on a constant-curvature corner."""
    return -params.alpha * params.delta_d0 * kappa0 / params.k


def find_feasible(
    v: float,
    lane_width: float,
    kappa0: float,
    c1: float,
    c2: float,
    c3: float,
    gamma_grid,
    lambda0_grid,
    k_grid,
    alpha: float = 0.5,
) -> list[FeasibilityReport]:
    """Grid search over (gamma, lambda0, k) for parameter sets passing all
    checks.

    lambda and delta_d0 are derived per grid point: lam = (lambda0/(k v))^2
    and delta_d0 = gamma / (alpha k); a report's lambda0, k v sqrt(lam), can
    differ from the grid value in its last digit.  Grid values outside the
    domain (gamma <= 0, k <= 0, lambda0 outside (0, 1)) are skipped; non-finite
    inputs, and grids whose derived lam or delta_d0 is not positive and
    finite, raise ValueError.

    The oscillation and abort-safety rows depend on (lambda0, k) only and
    the corner-cutting rows on (gamma, k) only, so they are evaluated first
    on those planes, with the same floating-point expressions the checks
    use.  A point is built only if it passes the lambda0-range, abort-safety,
    gamma-range and k-window rows there; a skipped point fails one of those
    rows in the checks too.  A point that gets through is built and checked
    exactly as before: `PlannerParams`,
    `check_oscillation`, `check_abort_safety`, `check_corner_cutting` and
    `predict_curvature_ratio`.

    Results are sorted by predicted curvature ratio, then by grid
    coordinates, so the ordering is deterministic regardless of evaluation
    order.
    """
    if not (0 < v < math.inf and 0 < lane_width < math.inf):
        raise ValueError("v and lane width must be positive and finite")
    if not math.isfinite(kappa0):
        raise ValueError("kappa0 must be finite")
    # +inf is the "no bound" default
    if not (c1 > 0 and c2 > 0 and c3 > 0):
        raise ValueError("safety bounds must be positive")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1) for the search")
    if not gamma_grid or not lambda0_grid or not k_grid:
        raise ValueError("all grid axes must be non-empty")
    if not all(map(math.isfinite, (*gamma_grid, *lambda0_grid, *k_grid))):
        raise ValueError("grid values must be finite")
    gammas = [gamma for gamma in gamma_grid if gamma > 0]
    lambda0s = [lambda0 for lambda0 in lambda0_grid if 0 < lambda0 < 1]
    ks = [k for k in k_grid if k > 0]
    if not (gammas and lambda0s and ks):
        return []
    # lam falls with k and rises with lambda0, delta_d0 rises with gamma and
    # falls with k: these two grid corners hold their extremes
    for gamma, lambda0, k in ((max(gammas), max(lambda0s), min(ks)),
                              (min(gammas), min(lambda0s), max(ks))):
        try:
            lam, delta_d0 = (lambda0 / (k * v)) ** 2, gamma / (alpha * k)
        except (OverflowError, ZeroDivisionError):
            lam = delta_d0 = math.inf
        if not (0 < lam < math.inf and 0 < delta_d0 < math.inf):
            raise ValueError(
                "lambda and delta_d0 must be positive and finite on the grid"
            )

    abort_passing = []  # per lambda0: the (k, lam) pairs passing abort safety
    for lambda0 in lambda0s:
        passing = []
        for k in ks:
            lam = (lambda0 / (k * v)) ** 2
            derived = k * v * math.sqrt(lam)  # PlannerParams.lambda0
            if not 0 < derived < 1:
                continue
            lhs, rhs1, rhs2 = _abort_terms(lam, derived, c1, c2, v, lane_width)
            if lhs <= rhs1 and lhs <= rhs2:
                passing.append((k, lam))
        abort_passing.append(passing)

    reports = []
    for gamma in gammas:
        corner = {}  # k -> delta_d0 for the k inside this gamma's window
        for k in ks:
            delta_d0 = gamma / (alpha * k)
            if kappa0 != 0:
                gamma_k = alpha * k * delta_d0
                k_lower, k_upper = _corner_k_bounds(gamma_k, kappa0, c3)
                if not (GAMMA_LOWER < gamma_k < 1.0 and k_lower < k < k_upper):
                    continue
            corner[k] = delta_d0
        if not corner:
            continue
        for passing in abort_passing:
            for k, lam in passing:
                if k not in corner:
                    continue
                params = PlannerParams(
                    k=k, lam=lam, alpha=alpha, delta_d0=corner[k], v_s=v
                )
                checks = (
                    check_oscillation(params),
                    check_abort_safety(params, v, lane_width, c1, c2),
                    check_corner_cutting(params, kappa0, c3),
                )
                if not all(c.satisfied for c in checks):
                    continue
                reports.append(
                    FeasibilityReport(
                        params=params,
                        checks=checks,
                        feasible=True,
                        predicted_curvature_ratio=predict_curvature_ratio(
                            params, kappa0
                        ),
                    )
                )
    reports.sort(
        key=lambda r: (
            r.predicted_curvature_ratio,
            r.params.gamma,
            r.params.lambda0,
            r.params.k,
        )
    )
    return reports
