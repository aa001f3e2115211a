"""Closed-form predictions and parameter feasibility checks.

Everything here is algebra on the planner parameters: the
oscillation-avoidance range of lambda0 = k v_s sqrt(lambda), the
lane-change peak bound of abort safety, the corner-cutting parameter
window, whose steady-offset row alone states c3, and a grid search
combining all of it.
"""

from __future__ import annotations

import math
from itertools import groupby
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .control import PlannerParams

GAMMA_LOWER = (math.sqrt(5.0) - 1.0) / 2.0

# builds a record without the NamedTuple constructor's Python-level __new__
_tuple_new = tuple.__new__
_satisfied = attrgetter("satisfied")


class CheckRow(NamedTuple):
    name: str
    lhs: float
    comparator: str
    rhs: float
    satisfied: bool


class CheckResult(NamedTuple):
    name: str
    # empty where the check does not apply
    rows: tuple[CheckRow, ...]

    @property
    def satisfied(self) -> bool:
        return all(map(_satisfied, self.rows))


class FeasibilityReport(NamedTuple):
    params: PlannerParams
    checks: tuple[CheckResult, ...]
    predicted_curvature_ratio: float

    @property
    def feasible(self) -> bool:
        return all(map(_satisfied, self.checks))


def check_oscillation(params: PlannerParams) -> CheckResult:
    """Fast/slow mode split: lambda0 = k v_s sqrt(lam) must lie in (0, 1)."""
    lambda0 = params.lambda0
    row = _tuple_new(
        CheckRow, ("lambda0_range", lambda0, "in (0, 1)", 1.0, 0.0 < lambda0 < 1.0)
    )
    return _tuple_new(CheckResult, ("oscillation", (row,)))


def check_abort_safety(
    params: PlannerParams, v: float, lane_width: float, c1: float, c2: float
) -> CheckResult:
    """Peak orientation-difference bounds c1 (rad) and c2 (rad/s) for an
    abortable lane change across a lane of width W = lane_width.

    Uses |e0| = k * W.  The returned rows report both limit branches
    individually so the binding one is visible.
    """
    lambda0 = params.lambda0
    if not 0 < lambda0 < 1:
        raise ValueError("lambda0 must lie in (0, 1)")
    # the peak (1/sqrt(lam)) exp(log lambda0 / (1 - lambda0)) against the
    # limits c1 v / W and sqrt(c2 v / W)
    lam = params.lam
    lhs = (1.0 / math.sqrt(lam)) * math.exp(math.log(lambda0) / (1.0 - lambda0))
    rhs1, rhs2 = c1 * v / lane_width, math.sqrt(c2 * v / lane_width)
    rows = (
        _tuple_new(CheckRow, ("abort_peak_vs_c1", lhs, "<=", rhs1, lhs <= rhs1)),
        _tuple_new(CheckRow, ("abort_peak_vs_c2", lhs, "<=", rhs2, lhs <= rhs2)),
    )
    return _tuple_new(CheckResult, ("abort_safety", rows))


def check_corner_cutting(
    params: PlannerParams, kappa0: float, c3: float
) -> CheckResult:
    """Parameter window from the constant-curvature corner analysis, with
    c3 (m) the bound on the steady lateral deviation.

    k_above_lower reads |kappa0| sqrt(1 + gamma).  The paper's second lower
    edge, sqrt(gamma |kappa0| / c3), is the steady row gamma |kappa0| / k^2
    < c3 solved for k > 0, so only that row reads c3.

    No rows (not applicable, vacuously satisfied) on a straight lane.
    """
    if kappa0 == 0:
        return _tuple_new(CheckResult, ("corner_cutting", ()))
    gamma = params.gamma
    ak0 = abs(kappa0)
    k_lower = ak0 * math.sqrt(1.0 + gamma)
    # k < nan is False: no upper edge unless 0 < gamma < 1
    k_upper = ak0 / math.sqrt(1.0 / gamma - 1.0) if 0 < gamma < 1 else math.nan
    steady = abs(predict_steady_lateral(params, kappa0))
    k = params.k
    rows = (
        _tuple_new(CheckRow, ("gamma_range", gamma, "in", GAMMA_LOWER,
                              GAMMA_LOWER < gamma < 1.0)),
        _tuple_new(CheckRow, ("k_above_lower", k_lower, "<", k, k_lower < k)),
        _tuple_new(CheckRow, ("k_below_upper", k, "<", k_upper, k < k_upper)),
        _tuple_new(CheckRow, ("steady_lateral_bound", steady, "<", c3, steady < c3)),
    )
    return _tuple_new(CheckResult, ("corner_cutting", rows))


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

    Each check is evaluated once per point of the plane it depends on, and
    the reports on that point share its result.  The oscillation and
    abort-safety checks read (lambda0, k) only: they run on
    `PlannerParams(k, lam, v_s=v)`, which checks k, lam and v, abort safety
    only where oscillation passes.  The passing points are grouped by k and
    sorted by their derived lambda0.  The corner-cutting check and
    `predict_curvature_ratio` read (gamma, k) only: they run on the pair's
    first parameter set, the pair's one checked construction, which checks
    alpha and delta_d0.  A pair that passes is one block of reports in
    lambda0 order, whose parameters are built unchecked: the plane and the
    pair have checked every field.

    Results are sorted by predicted curvature ratio, then by the derived
    gamma, lambda0 and k of their parameters, with ties in grid order
    (gamma, then lambda0), so the ordering does not depend on the
    evaluation order.  The blocks are sorted on (ratio, gamma); only blocks
    tied on both, as every k of a gamma is on a straight lane, have their
    reports merged by (lambda0, k).
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

    # (lambda0, k) plane, grouped by k: (lam, lambda0, oscillation, abort
    # safety) where both pass, lambda0 being the parameters' own k v_s sqrt(lam)
    passing_by_k = {}
    for lambda0 in lambda0s:
        for k in ks:
            lam = (lambda0 / (k * v)) ** 2
            params = PlannerParams(k, lam, 0.0, 0.0, v)
            oscillation = check_oscillation(params)
            if not oscillation.satisfied:
                continue
            abort = check_abort_safety(params, v, lane_width, c1, c2)
            if abort.satisfied:
                passing_by_k.setdefault(k, []).append(
                    (lam, params.lambda0, oscillation, abort)
                )
    # stable, so equal derived lambda0s keep their grid order
    for passing in passing_by_k.values():
        passing.sort(key=itemgetter(1))

    # one block per passing (gamma, k) pair: (ratio, derived gamma, k,
    # passing points, reports in lambda0 order)
    blocks = []
    for gamma in gammas:
        for k, passing in passing_by_k.items():
            delta_d0 = gamma / (alpha * k)
            # the (gamma, k) plane: neither reads lam, so the pair's first
            # parameters stand for all of them.  Their constructor checks
            # alpha and delta_d0; the plane's has checked k, lam and v
            params = PlannerParams(k, passing[0][0], alpha, delta_d0, v)
            cutting = check_corner_cutting(params, kappa0, c3)
            if not cutting.satisfied:
                continue
            ratio = predict_curvature_ratio(params, kappa0)
            reports = [
                _tuple_new(FeasibilityReport, (
                    _tuple_new(PlannerParams, (k, lam, alpha, delta_d0, v)),
                    (oscillation, abort, cutting), ratio,
                ))
                for lam, _, oscillation, abort in passing
            ]
            blocks.append((ratio, alpha * k * delta_d0, k, passing, reports))

    # stable, so blocks tied on (ratio, gamma) keep their build order
    blocks.sort(key=itemgetter(0, 1))
    result = []
    for _, group in groupby(blocks, itemgetter(0, 1)):
        tied = list(group)
        if len(tied) == 1:
            result += tied[0][4]
            continue
        # every k of a gamma ties on a straight lane, where the ratio is
        # 1 - gamma: merge the blocks' reports by (lambda0, k)
        merged = [
            (lambda0, k, report)
            for _, _, k, passing, reports in tied
            for (_, lambda0, _, _), report in zip(passing, reports)
        ]
        merged.sort(key=itemgetter(0, 1))
        result += map(itemgetter(2), merged)
    return result
