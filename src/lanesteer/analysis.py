"""Closed-form predictions and parameter feasibility checks.

Everything here is algebra on the planner parameters: the
oscillation-avoidance range of lambda0 = k v_s sqrt(lambda), the
lane-change peak bound of abort safety, the corner-cutting parameter
window, whose steady-offset row alone states c3, and a grid search
combining all of it.
"""

from __future__ import annotations

import gc
import math
from bisect import bisect_left
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
    return _abort_safety(
        params.lam, _abort_decay(lambda0),
        c1 * v / lane_width, math.sqrt(c2 * v / lane_width),
    )


def _abort_decay(lambda0: float) -> float:
    """The abort-safety peak's factor exp(log lambda0 / (1 - lambda0)), for
    lambda0 in (0, 1); it reads the derived lambda0 alone."""
    return math.exp(math.log(lambda0) / (1.0 - lambda0))


def _abort_safety(lam, decay, rhs1, rhs2) -> CheckResult:
    """`check_abort_safety`'s result from lam, the `_abort_decay` of the
    derived lambda0 and the two limits c1 v / W and sqrt(c2 v / W)."""
    lhs = (1.0 / math.sqrt(lam)) * decay
    rows = (
        _tuple_new(CheckRow, ("abort_peak_vs_c1", lhs, "<=", rhs1, lhs <= rhs1)),
        _tuple_new(CheckRow, ("abort_peak_vs_c2", lhs, "<=", rhs2, lhs <= rhs2)),
    )
    return _tuple_new(CheckResult, ("abort_safety", rows))


def _corner_window(params: PlannerParams, kappa0: float, c3: float):
    """The corner-cutting window at the parameters' own gamma: (gamma,
    k_lower, k_upper, |steady lateral|, the four rows' verdicts in row
    order, rising, falling).  All four hold exactly where rising and
    falling both do; at fixed k, rising can only turn true and falling
    only false as delta_d0 grows (see `find_feasible`).
    `check_corner_cutting` and the gate of `find_feasible` both read it,
    so each edge and comparison is written here alone."""
    gamma = params.gamma
    ak0 = abs(kappa0)
    k_lower = ak0 * math.sqrt(1.0 + gamma)
    # k < nan is False: no upper edge unless 0 < gamma < 1
    k_upper = ak0 / math.sqrt(1.0 / gamma - 1.0) if 0 < gamma < 1 else math.nan
    steady = abs(predict_steady_lateral(params, kappa0))
    k = params.k
    above, below = GAMMA_LOWER < gamma, gamma < 1.0
    inside, lower, bounded = k < k_upper, k_lower < k, steady < c3
    return gamma, k_lower, k_upper, steady, (
        above and below, lower, inside, bounded,
    ), above and (inside or not below), below and lower and bounded


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
    gamma, k_lower, k_upper, steady, ok, _, _ = _corner_window(params, kappa0, c3)
    k = params.k
    rows = (
        _tuple_new(CheckRow, ("gamma_range", gamma, "in", GAMMA_LOWER, ok[0])),
        _tuple_new(CheckRow, ("k_above_lower", k_lower, "<", k, ok[1])),
        _tuple_new(CheckRow, ("k_below_upper", k, "<", k_upper, ok[2])),
        _tuple_new(CheckRow, ("steady_lateral_bound", steady, "<", c3, ok[3])),
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

    Raises ValueError where the denominator vanishes, is not finite, or
    overflows: kappa0^2 does for |kappa0| above about 1.3e154.
    """
    try:
        denom = 1.0 - params.alpha * params.delta_d0 * kappa0 ** 2 / params.k
    except OverflowError:
        denom = math.inf
    # written so that NaN fails it; an infinite denominator makes v_s/v 0
    if not 1e-12 <= abs(denom) < math.inf:
        raise ValueError(
            "speed-ratio denominator vanishes or overflows for these parameters"
        )
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
    finite, raise ValueError, as does `predict_curvature_ratio` on a pair
    that passes.

    Each k is visited as the grid lists it, and its (gamma, k) pairs go
    through a gate first: the corner-cutting window at the pair's derived
    gamma, alpha k delta_d0, with no `CheckResult` built (a straight lane
    has no window, so every pair passes).  The gate bisects the sorted grid
    gammas, about 2 log2(n + 1) windows for n gammas: at fixed k the
    derived gamma never falls as the grid gamma rises (/ and * are
    correctly rounded), and with it k_lower, the steady offset and, on
    (0, 1), k_upper rise.  So the window's rising verdict (gamma above
    GAMMA_LOWER, and k < k_upper or gamma >= 1) can only turn true, and
    its falling one (gamma < 1, k_lower < k, steady < c3) only false:
    the passing gammas, where both hold, are one run.  k_upper is NaN from
    gamma 1 on, so k < k_upper alone is not monotone.  Only a k where some
    gamma passes has its (lambda0, k) plane evaluated: abort safety at each
    point whose derived lambda0 passes `check_oscillation`.  That check,
    and the abort peak's factor exp(log lambda0 / (1 - lambda0)), read only
    the derived lambda0, which takes far fewer values than the planes have
    points (under 100 of 1600 on the benchmark's grids).  So both public
    checks run once per distinct value in a search, the points sharing a
    value share its oscillation result, and a later point builds its abort
    rows from the shared factor.  The abort verdict is not shared: its peak
    also reads lam, and at one derived lambda0 1/sqrt(lam) is proportional
    to k, so one k can pass where another fails.  The passing points are
    sorted by their derived lambda0.  A passing pair with a non-empty plane
    then runs `check_corner_cutting` and `predict_curvature_ratio` once and
    gives one block of reports, in lambda0 order, which share the checks of
    their points.  Neither reads lam, so a pair's parameters take the lam of
    the first grid lambda0.

    Every `PlannerParams` here is built with tuple.__new__, unchecked.  The
    argument checks cover k, alpha and v.  lam rises with lambda0 and falls
    with k, and delta_d0 rises with gamma and falls with k, in floats too:
    * and / are correctly rounded, so monotone, and ** 2 (the C library's
    pow) rounds within about half an ulp, which keeps it monotone, since
    the exact squares of neighbouring floats lie more than an ulp apart.
    The two grid corners evaluated first therefore hold the extremes of
    every derived lam and delta_d0: where both are positive and finite, so
    is every point of the grid.

    Results are sorted by predicted curvature ratio, then by the derived
    gamma, lambda0 and k of their parameters, with ties in grid order
    (gamma, then lambda0), so the ordering does not depend on the
    evaluation order.  The blocks are sorted on (ratio, gamma); only blocks
    tied on both, as every k of a gamma is on a straight lane and a k listed
    twice is with its first copy, have their reports merged by (lambda0, k).

    The search, after the argument checks, runs with the cyclic garbage
    collector paused, and a finally re-enables it only if it was on, so a
    caller's disabled collector stays disabled.  Nothing the search builds
    is part of a reference cycle, so a collection during it could free
    nothing; it would only rescan the reports built so far, thousands on a
    large grid.  The pause is process-wide: other threads get no cyclic
    collection while it lasts.
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

    # the search builds no reference cycle, so a collection during it could
    # free nothing; pause the collector as timeit does
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _search(v, lane_width, kappa0, c1, c2, c3, alpha, gammas,
                       lambda0s, ks)
    finally:
        if enabled:
            gc.enable()


def _search(v, lane_width, kappa0, c1, c2, c3, alpha, gammas, lambda0s, ks):
    """`find_feasible`'s search over its validated, in-domain grid values."""
    # one block per passing (gamma, k) pair with a non-empty plane: (ratio,
    # derived gamma, k, passing points, reports in lambda0 order).  Only
    # tied blocks' order reaches the result, and their merge orders
    # different ks by k, so k may be the outer loop
    blocks = []
    sorted_gammas = sorted(gammas)
    # check_oscillation and the abort peak's decay read only the derived
    # lambda0, which takes far fewer values over the planes than there are
    # points: one (oscillation result, decay or None) per value.  The
    # abort verdict is not shared: its lhs also reads lam, which varies
    # with k at one derived lambda0
    shared = {}
    # check_abort_safety's limits, fixed for the search
    rhs1, rhs2 = c1 * v / lane_width, math.sqrt(c2 * v / lane_width)
    for k in ks:
        kv = k * v
        # the pairs read no lam: they take the first grid lambda0's
        first_lam = (lambda0s[0] / kv) ** 2

        def pair(gamma):
            return _tuple_new(
                PlannerParams, (k, first_lam, alpha, gamma / (alpha * k), v)
            )

        def window(gamma):
            return _corner_window(pair(gamma), kappa0, c3)

        kept = gammas
        # the gate, with no CheckResult; a straight lane has no window.  The
        # passing run starts at the first sorted gamma where rising holds
        # and ends before the first after it where falling fails; every grid
        # gamma inside it is kept, in grid order
        if kappa0:
            lo = bisect_left(sorted_gammas, True, key=lambda g: window(g)[5])
            hi = bisect_left(sorted_gammas, True, lo, key=lambda g: not window(g)[6])
            if lo == hi:
                continue
            low, high = sorted_gammas[lo], sorted_gammas[hi - 1]
            kept = [gamma for gamma in gammas if low <= gamma <= high]
        pairs = list(map(pair, kept))
        # the (lambda0, k) plane: (lam, lambda0, oscillation, abort safety)
        # where both pass, lambda0 being the parameters' own k v_s sqrt(lam),
        # written as the `PlannerParams.lambda0` property does.  A value
        # seen first runs both public checks; a value seen before builds
        # the point's abort result from its shared decay.  Each verdict is
        # read from its rows by index (rows[i].satisfied), with no
        # Python-level `satisfied` call
        passing = []
        for lambda0 in lambda0s:
            lam = (lambda0 / kv) ** 2
            derived = kv * math.sqrt(lam)
            seen = shared.get(derived)
            if seen is None:
                params = _tuple_new(PlannerParams, (k, lam, 0.0, 0.0, v))
                oscillation = check_oscillation(params)
                if not oscillation[1][0][4]:
                    shared[derived] = oscillation, None
                    continue
                abort = check_abort_safety(params, v, lane_width, c1, c2)
                shared[derived] = oscillation, _abort_decay(derived)
            else:
                oscillation, decay = seen
                if decay is None:
                    continue
                abort = _abort_safety(lam, decay, rhs1, rhs2)
            rows = abort[1]
            if rows[0][4] and rows[1][4]:
                passing.append((lam, derived, oscillation, abort))
        if not passing:
            continue
        # stable, so equal derived lambda0s keep their grid order
        passing.sort(key=itemgetter(1))
        for params in pairs:
            cutting = check_corner_cutting(params, kappa0, c3)
            ratio = predict_curvature_ratio(params, kappa0)
            delta_d0 = params.delta_d0
            reports = [
                _tuple_new(FeasibilityReport, (
                    _tuple_new(PlannerParams, (k, lam, alpha, delta_d0, v)),
                    (oscillation, abort, cutting), ratio,
                ))
                for lam, _, oscillation, abort in passing
            ]
            blocks.append((ratio, params.gamma, k, passing, reports))

    # stable, so blocks tied on (ratio, gamma) keep their build order
    blocks.sort(key=itemgetter(0, 1))
    result = []
    for _, group in groupby(blocks, itemgetter(0, 1)):
        tied = list(group)
        if len(tied) == 1:
            result += tied[0][4]
            continue
        # every k of a gamma ties on a straight lane, where the ratio is
        # 1 - gamma, and a k listed twice with its first copy: merge the
        # blocks' reports by (lambda0, k)
        merged = [
            (lambda0, k, report)
            for _, _, k, passing, reports in tied
            for (_, lambda0, _, _), report in zip(passing, reports)
        ]
        merged.sort(key=itemgetter(0, 1))
        result += map(itemgetter(2), merged)
    return result
