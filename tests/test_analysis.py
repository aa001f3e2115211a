import gc
import hashlib
import importlib.util
import json
import math
import os
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import transient as oracle

from lanesteer import analysis, cli, scenario_io
from lanesteer.control import PlannerParams

HERE = os.path.dirname(__file__)
FIXTURE = os.path.join(HERE, "data", "feasibility_fixture.json")
ORACLE = os.path.join(HERE, "oracles", "gen_feasibility_fixture.py")
with open(FIXTURE) as _fh:
    FIXTURE_DATA = json.load(_fh)

# a search whose one passing pair has |kappa0| > 1.3e154, so kappa0 ** 2
# overflows in predict_curvature_ratio
KAPPA0_OVERFLOW = dict(
    v=1.8022985722047018e-127, lane_width=3.4232798493716525e+273,
    kappa0=6.011951275447932e+226, c1=math.inf, c2=math.inf,
    c3=9.53398376109886e+292, alpha=0.4126804794224991,
    gamma_grid=[0.9992995365614711, 0.9999999999999977],
    lambda0_grid=[0.19236025548177993, 0.8347393285976465],
    k_grid=[5.935508918566723e+228, 3.125672424541924e+222],
)

lambda0s = st.floats(0.05, 0.95)
lams = st.floats(0.1, 25.0)


def corner_params(k=0.12, lambda0=0.5, gamma=0.995, alpha=0.5, v=1.0):
    return PlannerParams(
        k=k,
        lam=(lambda0 / (k * v)) ** 2,
        alpha=alpha,
        delta_d0=gamma / (alpha * k),
        v_s=v,
    )


def transient(e0, lam, lambda0, num_samples):
    """The lane-change transient (t, dtheta, dtheta_dot) in numpy, on a
    uniform grid over ten slow time constants 10 sqrt(lam)/lambda0."""
    a = 1.0 / math.sqrt(lam)
    t = np.linspace(0.0, 10.0 * math.sqrt(lam) / lambda0, num_samples)
    fast, slow = np.exp(-a * t), np.exp(-lambda0 * a * t)
    scale = e0 / (1.0 - lambda0)
    return t, scale * (fast - slow), -scale * a * (fast - lambda0 * slow)


class TestPredictLaneChange:
    def test_zero_initial_error(self):
        pred = oracle.predict_lane_change(0.0, 1.0, 0.5)
        assert pred.peak_dtheta == 0.0
        for t in np.linspace(0.0, 20.0, 2001):
            assert oracle.dtheta_solution(t, 0.0, 1.0, 0.5) == 0.0
            assert oracle.dtheta_dot_solution(t, 0.0, 1.0, 0.5) == 0.0

    def test_starts_at_zero(self):
        assert oracle.dtheta_solution(0.0, -1.75, 1.0, 0.5) == 0.0

    @given(st.floats(-2, 2).filter(lambda e: abs(e) > 1e-6), lams, lambda0s)
    def test_peak_formulas_match_series(self, e0, lam, lambda0):
        pred = oracle.predict_lane_change(e0, lam, lambda0)
        t, dtheta, rate = transient(e0, lam, lambda0, 20001)
        # the numpy series is the module's transient
        for i in range(0, 20001, 2000):
            assert (dtheta[i], rate[i]) == pytest.approx((
                oracle.dtheta_solution(t[i], e0, lam, lambda0),
                oracle.dtheta_dot_solution(t[i], e0, lam, lambda0),
            ), rel=1e-9)
        assert pred.peak_dtheta == pytest.approx(np.abs(dtheta).max(), rel=1e-4)
        # the rate's interior extremum; exclude the t = 0 boundary value
        grid_peak_dot = np.abs(rate[t > pred.peak_time_dtheta]).max()
        assert pred.peak_dtheta_dot == pytest.approx(grid_peak_dot, rel=1e-3)

    def test_known_peak_value(self):
        # lambda0 = 1/2: peak = 2 |e0| exp(2 ln(1/2)) = |e0| / 2
        pred = oracle.predict_lane_change(1.0, 1.0, 0.5)
        assert pred.peak_dtheta == pytest.approx(0.5)
        assert pred.peak_time_dtheta == pytest.approx(2.0 * math.log(2.0))

    @given(lams, lambda0s)
    def test_unique_interior_extremum(self, lam, lambda0):
        _, dthetas, _ = transient(1.0, lam, lambda0, 4001)
        diffs = np.diff(dthetas)
        signs = np.sign(diffs[np.abs(diffs) > 1e-15])
        flips = np.count_nonzero(np.diff(signs))
        assert flips == 1

    def test_lambda0_domain(self):
        with pytest.raises(ValueError):
            oracle.predict_lane_change(1.0, 1.0, 1.0)

    def test_derivative_consistency(self):
        # dtheta_dot really is the time derivative of dtheta
        e0, lam, lambda0 = -0.8, 2.0, 0.4
        for t in (0.1, 0.5, 1.7, 4.0):
            eps = 1e-6
            fd = (
                oracle.dtheta_solution(t + eps, e0, lam, lambda0)
                - oracle.dtheta_solution(t - eps, e0, lam, lambda0)
            ) / (2 * eps)
            assert oracle.dtheta_dot_solution(t, e0, lam, lambda0) == pytest.approx(
                fd, rel=1e-6
            )


class TestCheckOscillation:
    def test_consistent_params_pass(self):
        p = PlannerParams(k=0.5, lam=1.0)
        assert analysis.check_oscillation(p).satisfied

    @pytest.mark.parametrize("stem, lambda0", [
        ("lane_change_k05", 0.5),
        ("lane_change_k10", 1.0),
        ("lane_change_k15", 1.5),  # criterion 2's run that must oscillate
        ("corner_twopoint", 0.5),
        ("corner_onepoint", 0.5),
    ])
    def test_bundled_scenarios(self, stem, lambda0):
        scenario, _ = scenario_io.load(
            os.path.join(cli.SCENARIOS_DIR, f"{stem}.scenario")
        )
        [row] = analysis.check_oscillation(scenario.params).rows
        assert row.name == "lambda0_range"
        assert row.lhs == pytest.approx(lambda0, abs=1e-12)
        assert row.satisfied == (lambda0 < 1.0)


class TestCheckAbortSafety:
    def test_infinite_limits_always_pass(self):
        p = PlannerParams(k=0.5, lam=1.0)
        assert analysis.check_abort_safety(p, 1.0, 3.5, math.inf, math.inf).satisfied

    def test_closed_form_value(self):
        # lambda = 1, lambda0 = 1/2: lhs = exp(-2 ln 2) = 1/4
        p = PlannerParams(k=0.5, lam=1.0)
        res = analysis.check_abort_safety(p, v=1.0, lane_width=3.5, c1=1.0, c2=1.0)
        assert res.rows[0].lhs == pytest.approx(0.25)
        # min{1/3.5, sqrt(1/3.5)} = 0.2857 >= 0.25: passes
        assert res.satisfied

    def test_tight_c1_fails(self):
        p = PlannerParams(k=0.5, lam=1.0)
        res = analysis.check_abort_safety(p, v=1.0, lane_width=3.5, c1=0.5, c2=1.0)
        c1_row = next(r for r in res.rows if r.name == "abort_peak_vs_c1")
        assert not c1_row.satisfied
        assert not res.satisfied

    def test_lambda0_outside_unit_interval_rejected(self):
        # k = 1, lam = 1, v_s = 1: lambda0 = 1, where the closed-form peak
        # divides by 1 - lambda0
        with pytest.raises(ValueError, match="lambda0"):
            analysis.check_abort_safety(
                PlannerParams(k=1.0, lam=1.0), 1.0, 3.5, math.inf, math.inf
            )

    def test_lhs_cross_checks_peak_formula(self):
        # the bound's lhs rescales to the lane-change peak with e0 = k W:
        # peak = lhs * e0 * sqrt(lam) / lambda0
        p, lane_width = PlannerParams(k=0.4, lam=(0.7 / 0.4) ** 2), 3.5
        res = analysis.check_abort_safety(p, 1.0, lane_width, math.inf, math.inf)
        e0 = p.k * lane_width
        peak = oracle.predict_lane_change(e0, p.lam, p.lambda0).peak_dtheta
        assert peak == pytest.approx(
            res.rows[0].lhs * e0 * math.sqrt(p.lam) / p.lambda0, rel=1e-12
        )


class TestCheckCornerCutting:
    def test_straight_lane_not_applicable(self):
        p = corner_params()
        res = analysis.check_corner_cutting(p, 0.0, math.inf)
        assert res.rows == ()
        assert res.satisfied

    def test_golden_ratio_bound_exact(self):
        assert analysis.GAMMA_LOWER == (math.sqrt(5.0) - 1.0) / 2.0

    def test_gamma_below_bound_fails(self):
        p = corner_params(gamma=0.5)
        res = analysis.check_corner_cutting(p, 0.01, math.inf)
        row = next(r for r in res.rows if r.name == "gamma_range")
        assert not row.satisfied

    def test_window_values(self):
        # gamma = 0.8, kappa0 = 0.01, C3 = 1: upper bound 0.01/sqrt(0.25) = 0.02,
        # lower bound 0.01 sqrt(1.8) = 0.0134; the steady row,
        # 0.008 / k^2 < 1, needs k > sqrt(0.008) = 0.0894: no k is feasible
        p = corner_params(gamma=0.8, k=0.12)
        res = analysis.check_corner_cutting(p, 0.01, c3=1.0)
        upper = next(r for r in res.rows if r.name == "k_below_upper")
        lower = next(r for r in res.rows if r.name == "k_above_lower")
        assert upper.rhs == pytest.approx(0.02)
        assert lower.lhs == pytest.approx(0.01 * math.sqrt(1.8))
        k = 0.015
        assert lower.lhs < k < upper.rhs
        rows = {r.name: r for r in analysis.check_corner_cutting(
            corner_params(gamma=0.8, k=k), 0.01, c3=1.0).rows}
        assert rows["k_above_lower"].satisfied and rows["k_below_upper"].satisfied
        assert not rows["steady_lateral_bound"].satisfied

    def test_feasible_set_passes(self):
        p = corner_params(gamma=0.995, k=0.12)
        assert analysis.check_corner_cutting(p, 0.01, c3=1.0).satisfied


class TestPredictions:
    def test_one_point_ratio_is_one(self):
        p = PlannerParams(k=0.12, lam=(0.5 / 0.12) ** 2)
        assert analysis.predict_curvature_ratio(p, 0.01) == pytest.approx(1.0)
        assert analysis.predict_steady_lateral(p, 0.01) == 0.0

    def test_two_point_ratio_below_one(self):
        p = corner_params()
        ratio = analysis.predict_curvature_ratio(p, 0.01)
        assert 0.0 < ratio < 1.0

    def test_steady_lateral_formula(self):
        p = corner_params()
        expected = -p.alpha * p.delta_d0 * 0.01 / p.k
        assert analysis.predict_steady_lateral(p, 0.01) == pytest.approx(expected)

    def test_straight_lane_steady_zero(self):
        assert analysis.predict_steady_lateral(corner_params(), 0.0) == 0.0


def per_point_find_feasible(v, lane_width, kappa0, c1, c2, c3, gamma_grid,
                            lambda0_grid, k_grid, alpha=0.5):
    """Reference search: every grid point through PlannerParams and the three
    public checks, as find_feasible did before it rejected points by window."""
    if v <= 0 or lane_width <= 0:
        raise ValueError("v and lane width must be positive")
    if alpha <= 0 or alpha >= 1:
        raise ValueError("alpha must lie in (0, 1) for the search")
    if not gamma_grid or not lambda0_grid or not k_grid:
        raise ValueError("all grid axes must be non-empty")
    reports = []
    for gamma in gamma_grid:
        for lambda0 in lambda0_grid:
            for k in k_grid:
                if not (0 < lambda0 < 1) or k <= 0 or gamma <= 0:
                    continue
                lam = (lambda0 / (k * v)) ** 2
                delta_d0 = gamma / (alpha * k)
                params = PlannerParams(
                    k=k, lam=lam, alpha=alpha, delta_d0=delta_d0, v_s=v,
                )
                # the abort-safety closed form needs the derived lambda0 in
                # (0, 1), which a grid lambda0 just below 1 can miss
                oscillation = analysis.check_oscillation(params)
                if not oscillation.satisfied:
                    continue
                checks = (
                    oscillation,
                    analysis.check_abort_safety(params, v, lane_width, c1, c2),
                    analysis.check_corner_cutting(params, kappa0, c3),
                )
                if not all(c.satisfied for c in checks):
                    continue
                reports.append(analysis.FeasibilityReport(
                    params=params, checks=checks,
                    predicted_curvature_ratio=analysis.predict_curvature_ratio(
                        params, kappa0
                    ),
                ))
    reports.sort(key=lambda r: (r.predicted_curvature_ratio, r.params.gamma,
                                r.params.lambda0, r.params.k))
    return reports


def boundary_ks(inputs):
    """k values on the corner-cutting window edges of each grid gamma and on
    the abort-safety bound of each grid lambda0, with their float
    neighbours, from the closed forms written out here."""
    v, w, c1, c2, c3 = (inputs[n] for n in ("v", "lane_width", "c1", "c2", "c3"))
    ak0 = abs(inputs["kappa0"])
    edges = []
    for gamma in inputs["gamma_grid"]:
        if gamma > 0:
            edges += [ak0 * math.sqrt(1.0 + gamma), math.sqrt(gamma * ak0 / c3)]
        if 0 < gamma < 1:
            edges.append(ak0 / math.sqrt(1.0 / gamma - 1.0))
    limit = min(c1 * v / w, math.sqrt(c2 * v / w))
    for lambda0 in inputs["lambda0_grid"]:
        if 0 < lambda0 < 1:
            peak = math.exp(math.log(lambda0) / (1.0 - lambda0))
            # v * peak underflows to 0 for subnormal lambda0: no finite edge
            if v * peak > 0:
                edges.append(limit * lambda0 / (v * peak))
    ks = []
    for k in edges:
        if 0 < k < math.inf:
            ks += [math.nextafter(k, 0.0), k, math.nextafter(k, math.inf)]
    return ks


bounds = st.one_of(st.just(math.inf), st.floats(0.05, 5.0))


@st.composite
def search_inputs(draw):
    """Random search inputs with small grids: out-of-domain grid values,
    gamma on the golden-ratio bound and at 1, lambda0 one ulp below 1, k on
    the window and abort edges, and a k at which lam overflows.  Positive
    gamma stays above 1e-6: far below that delta_d0 can underflow to 0,
    which the windowed search rejects and the point-by-point search
    accepted."""
    inputs = dict(
        v=draw(st.floats(0.1, 30.0)),
        lane_width=draw(st.floats(1.0, 5.0)),
        kappa0=draw(st.one_of(st.just(0.0), st.floats(-0.3, 0.3))),
        c1=draw(bounds), c2=draw(bounds), c3=draw(bounds),
        alpha=draw(st.floats(0.05, 0.95)),
    )
    gamma = st.one_of(
        st.floats(1e-6, 10.0),
        st.sampled_from([-0.5, 0.0, analysis.GAMMA_LOWER, 1.0,
                         math.nextafter(analysis.GAMMA_LOWER, 1.0),
                         math.nextafter(1.0, 0.0)]),
    )
    inputs["gamma_grid"] = draw(st.lists(gamma, min_size=1, max_size=4))
    # one ulp below 1 derives exactly 1.0, out of range, at about one k in
    # seven
    lambda0 = st.one_of(st.floats(-0.2, 1.2), st.just(math.nextafter(1.0, 0.0)))
    inputs["lambda0_grid"] = draw(st.lists(lambda0, min_size=1, max_size=4))
    k_grid = draw(st.lists(st.floats(-0.1, 3.0), min_size=1, max_size=4))
    edges = boundary_ks({**inputs, "k_grid": k_grid})
    if edges:
        k_grid += draw(st.lists(st.sampled_from(edges), max_size=4))
    if draw(st.integers(0, 9)) == 0:
        k_grid.append(1e-160)  # lam = (lambda0/(k v))^2 overflows
    inputs["k_grid"] = draw(st.permutations(k_grid))
    return inputs


def count_calls(monkeypatch):
    """Counts, from here on, the calls of the search's checks and ratio and
    of the validating PlannerParams constructor, by name."""
    names = ("check_oscillation", "check_abort_safety", "check_corner_cutting",
             "predict_curvature_ratio")
    calls = dict.fromkeys((*names, "PlannerParams"), 0)
    for name in names:
        def counting(*args, _real=getattr(analysis, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(analysis, name, counting)
    real_new = PlannerParams.__new__

    def counting_new(cls, *args, **kwargs):
        calls["PlannerParams"] += 1
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(PlannerParams, "__new__", staticmethod(counting_new))
    return calls


class TestFindFeasible:
    GRID = dict(
        gamma_grid=[0.7, 0.995],
        lambda0_grid=[0.3, 0.5],
        k_grid=[0.05, 0.12],
    )

    def test_relaxed_limits_reduce_to_lambda0(self):
        # straight lane and infinite limits: every grid point passes
        reports = analysis.find_feasible(
            1.0, 3.5, 0.0, math.inf, math.inf, math.inf, **self.GRID
        )
        assert len(reports) == 8
        assert all(r.feasible for r in reports)

    def test_reports_self_consistent(self):
        reports = analysis.find_feasible(
            1.0, 3.5, 0.01, 0.3, 0.3, 1.0, **self.GRID
        )
        for rep in reports:
            assert analysis.check_oscillation(rep.params).satisfied
            abort = analysis.check_abort_safety(rep.params, 1.0, 3.5, 0.3, 0.3)
            assert abort.satisfied
            assert analysis.check_corner_cutting(rep.params, 0.01, 1.0).satisfied

    def test_sorted_by_ratio(self):
        reports = analysis.find_feasible(
            1.0, 3.5, 0.0, math.inf, math.inf, math.inf, **self.GRID
        )
        ratios = [r.predicted_curvature_ratio for r in reports]
        assert ratios == sorted(ratios)

    def test_monotone_relaxation(self):
        tight = analysis.find_feasible(1.0, 3.5, 0.01, 0.2, 0.2, 0.5, **self.GRID)
        loose = analysis.find_feasible(1.0, 3.5, 0.01, 0.4, 0.4, 1.0, **self.GRID)
        tight_keys = {(r.params.gamma, r.params.lambda0, r.params.k) for r in tight}
        loose_keys = {(r.params.gamma, r.params.lambda0, r.params.k) for r in loose}
        assert tight_keys <= loose_keys

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            analysis.find_feasible(
                1.0, 3.5, 0.01, 0.3, 0.3, 1.0,
                gamma_grid=[], lambda0_grid=[0.5], k_grid=[0.1],
            )

    @settings(max_examples=300)
    @given(search_inputs())
    @example(FIXTURE_DATA["inputs"])
    # the PlannerParams.gamma property, alpha * k * delta_d0, gives back
    # gamma = 1.0 as 0.9999999999999999 at this k, which passes the gamma
    # range: one feasible set
    @example(dict(v=1.0, lane_width=3.5, kappa0=0.01, c1=math.inf,
                  c2=math.inf, c3=math.inf, alpha=0.5, gamma_grid=[1.0],
                  lambda0_grid=[0.5], k_grid=[0.09]))
    # a straight lane: the ratio is 1 - gamma at every k, so each gamma's
    # blocks tie and are merged by (lambda0, k)
    @example(dict(v=1.0, lane_width=3.5, kappa0=0.0, c1=math.inf,
                  c2=math.inf, c3=math.inf, alpha=0.5, gamma_grid=[0.995, 0.7],
                  lambda0_grid=[0.5, 0.3], k_grid=[0.2, 0.05, 0.12]))
    # lambda0s one ulp apart, the larger first: at k = 0.05 and 0.2 their
    # derived lambda0s tie (with their lam), at k = 0.12 and 0.3 they swap
    # and must be reordered; on a corner and on a straight lane
    @example(dict(v=1.0, lane_width=3.5, kappa0=0.01, c1=math.inf,
                  c2=math.inf, c3=math.inf, alpha=0.5, gamma_grid=[0.995],
                  lambda0_grid=[math.nextafter(0.41, 1.0), 0.41],
                  k_grid=[0.05, 0.12, 0.2, 0.3]))
    @example(dict(v=1.0, lane_width=3.5, kappa0=0.0, c1=math.inf,
                  c2=math.inf, c3=math.inf, alpha=0.5, gamma_grid=[0.7, 0.995],
                  lambda0_grid=[math.nextafter(0.41, 1.0), 0.41],
                  k_grid=[0.05, 0.12, 0.2, 0.3]))
    # a k and a lambda0 each listed twice: each copy of k = 0.12 gives its
    # own blocks, whose tie the merge orders by (lambda0, k), so each point
    # at that k appears twice, adjacent
    @example(dict(v=1.0, lane_width=3.5, kappa0=0.01, c1=math.inf,
                  c2=math.inf, c3=math.inf, alpha=0.5, gamma_grid=[0.995, 1.0],
                  lambda0_grid=[0.5, 0.3, 0.5], k_grid=[0.12, 0.09, 0.12]))
    # the window of (0.995, 0.13) passes, but abort safety, 0.5 k <= c1 / 3.5
    # at lambda0 = 0.5, fails there: k = 0.13 has an empty plane
    @example(dict(v=1.0, lane_width=3.5, kappa0=0.01, c1=0.15,
                  c2=math.inf, c3=math.inf, alpha=0.5, gamma_grid=[0.995, 1.0],
                  lambda0_grid=[0.5], k_grid=[0.05, 0.09, 0.13]))
    # a corner turning the other way: the window reads |kappa0|
    @example(dict(v=1.0, lane_width=3.5, kappa0=-0.01, c1=0.3,
                  c2=0.3, c3=1.0, alpha=0.5, gamma_grid=[0.7, 0.995, 1.0],
                  lambda0_grid=[0.3, 0.5, 0.8],
                  k_grid=[0.05, 0.09, 0.12, 0.14, 0.2]))
    # an unsorted k grid, on a corner and on a straight lane.  lambda0 0.5
    # derives 0.49999999999999994 at k = 0.09 and 0.5 at the other ks, so
    # the straight lane's k = 0.09 reports catch an oscillation result
    # shared by grid lambda0 rather than by derived lambda0
    @example(dict(v=1.0, lane_width=3.5, kappa0=0.01, c1=0.3,
                  c2=0.3, c3=math.inf, alpha=0.5, gamma_grid=[1.0, 0.995, 0.7],
                  lambda0_grid=[0.5, 0.3], k_grid=[0.2, 0.09, 0.02, 0.12, 0.05]))
    @example(dict(v=1.0, lane_width=3.5, kappa0=0.0, c1=0.3,
                  c2=0.3, c3=1.0, alpha=0.5, gamma_grid=[1.0, 0.995, 0.7],
                  lambda0_grid=[0.5, 0.3], k_grid=[0.2, 0.09, 0.02, 0.12, 0.05]))
    # gammas unsorted and listed twice; at k = 0.05 the upper edge on k and
    # the steady row bound the passing run from both sides
    @example(dict(v=1.0, lane_width=3.5, kappa0=0.01, c1=math.inf,
                  c2=math.inf, c3=3.96, alpha=0.5,
                  gamma_grid=[0.99, 0.95, 0.97, 0.999, 0.98, 0.97, 0.95],
                  lambda0_grid=[0.5, 0.3], k_grid=[0.05, 0.09, 0.12]))
    # gammas on both sides of 1, one ulp from it among them: derived from
    # 1.0 and its lower neighbour, gamma can land below 1 and pass
    @example(dict(v=1.0, lane_width=3.5, kappa0=0.01, c1=math.inf,
                  c2=math.inf, c3=math.inf, alpha=0.5,
                  gamma_grid=[1.2, 0.995, math.nextafter(1.0, 0.0), 1.0,
                              math.nextafter(1.0, 2.0), 0.98, 0.5],
                  lambda0_grid=[0.5], k_grid=[0.05, 0.09, 0.12, 0.3]))
    # lambda0 one ulp below 1 derives exactly 1.0 at both ks, which fails
    # the oscillation range: the first visit stores no decay, and the later
    # ones, the repeated k's included, skip the point on that
    @example(dict(v=1.0, lane_width=3.5, kappa0=0.0, c1=math.inf,
                  c2=math.inf, c3=math.inf, alpha=0.5, gamma_grid=[0.5],
                  lambda0_grid=[0.5, 0.9999999999999999],
                  k_grid=[1.371769, 0.44932, 1.371769]))
    def test_matches_per_point_search(self, inputs):
        # the point-by-point search raised OverflowError or
        # ZeroDivisionError where lam or delta_d0 overflowed; the windowed
        # one raises ValueError before the search for all of them
        try:
            want = per_point_find_feasible(**inputs)
        except (ValueError, ArithmeticError):
            with pytest.raises(ValueError):
                analysis.find_feasible(**inputs)
            return
        assert repr(analysis.find_feasible(**inputs)) == repr(want)

    @pytest.mark.parametrize("inputs", [
        FIXTURE_DATA["inputs"],
        # straight lane and infinite limits: all 27 points are feasible
        dict(v=1.0, lane_width=3.5, kappa0=0.0, c1=math.inf, c2=math.inf,
             c3=math.inf, gamma_grid=[0.7, 0.9, 0.995],
             lambda0_grid=[0.3, 0.5, 0.7], k_grid=[0.05, 0.12, 0.2]),
    ], ids=["fixture", "straight"])
    def test_each_check_once_per_plane_point(self, monkeypatch, inputs):
        # a check reads one plane, (lambda0, k) or (gamma, k), so the search
        # needs it at most once per point of that plane, however many
        # reports share the point; so do the validating PlannerParams
        # constructions, each of which checks the fields its plane adds
        calls = count_calls(monkeypatch)
        reports = analysis.find_feasible(**inputs)
        assert reports
        n_gamma, n_lambda0, n_k = (
            len(inputs[f"{axis}_grid"]) for axis in ("gamma", "lambda0", "k")
        )
        assert calls["check_oscillation"] <= n_lambda0 * n_k
        assert calls["check_abort_safety"] <= n_lambda0 * n_k
        assert calls["check_corner_cutting"] <= n_gamma * n_k
        assert calls["predict_curvature_ratio"] <= n_gamma * n_k
        assert calls["PlannerParams"] <= n_lambda0 * n_k + n_gamma * n_k
        # the parameters built without the constructor pass it
        for r in reports:
            assert type(r.params) is PlannerParams
            assert PlannerParams(*r.params) == r.params

    @pytest.mark.parametrize("name", ["fixture", "bench_seed1"])
    def test_search_is_lazy(self, monkeypatch, name):
        # the plane of a k is evaluated only where some gamma passes the
        # corner window at k, and the corner check and the ratio only for a
        # passing pair whose plane is non-empty.  With the abort limits
        # lifted every in-domain lambda0 passes, so the ks of the per-point
        # search's sets are the ks with a passing pair.  Both public checks
        # run once per distinct derived lambda0 of their planes, abort
        # safety only for the values in (0, 1)
        inputs = digest_inputs(name)
        lifted = {**inputs, "c1": math.inf, "c2": math.inf}
        gate_sets = per_point_find_feasible(**lifted)
        gate_ks = {r.params.k for r in gate_sets}
        pairs = {(r.params.k, r.params.delta_d0)
                 for r in per_point_find_feasible(**inputs)}
        v, alpha = inputs["v"], inputs["alpha"]
        derived = {
            PlannerParams(k, (x / (k * v)) ** 2, alpha, 1.0, v).lambda0
            for k in gate_ks for x in inputs["lambda0_grid"] if 0 < x < 1
        }
        n_abort = sum(0 < lambda0 < 1 for lambda0 in derived)
        assert gate_ks and len(gate_ks) < len(inputs["k_grid"])
        calls = count_calls(monkeypatch)
        reports = analysis.find_feasible(**inputs)
        assert {(r.params.k, r.params.delta_d0) for r in reports} == pairs
        assert calls["check_abort_safety"] == n_abort
        assert calls["check_oscillation"] == len(
            {r.params.lambda0 for r in gate_sets}
        )
        assert calls["check_corner_cutting"] == len(pairs)
        assert calls["predict_curvature_ratio"] == len(pairs)
        assert calls["PlannerParams"] == 0

    @pytest.mark.parametrize("name", ["fixture", "bench_seed1"])
    def test_one_oscillation_result_per_derived_lambda0(self, name):
        # the oscillation check reads only the derived lambda0, so the
        # reports that share one share its result, whatever their k, and
        # its row states their own lambda0
        reports = analysis.find_feasible(**digest_inputs(name))
        assert reports
        for r in reports:
            assert r.checks[0].rows[0].lhs == r.params.lambda0
        results = {id(r.checks[0]) for r in reports}
        assert len(results) == len({r.params.lambda0 for r in reports})

    def test_abort_decay_shared_but_not_its_verdict(self, monkeypatch):
        # lambda0 0.5 derives 0.5 at all three ks, so they share one decay,
        # exp(log 0.5 / 0.5) = 1/4.  The lhs, 0.5 k here, also reads lam:
        # 0.025, 0.05 and 0.065 against c1 v / W = 0.0571, so k = 0.13
        # fails while the other two pass
        inputs = dict(v=1.0, lane_width=3.5, kappa0=0.01, c1=0.2,
                      c2=math.inf, c3=math.inf, alpha=0.5, gamma_grid=[0.995],
                      lambda0_grid=[0.5], k_grid=[0.05, 0.1, 0.13])
        calls = count_calls(monkeypatch)
        reports = analysis.find_feasible(**inputs)
        # the public check ran once, for the one derived lambda0
        assert calls["check_abort_safety"] == 1
        assert {r.params.lambda0 for r in reports} == {0.5}
        assert {r.params.k for r in reports} == {0.05, 0.1}
        for r in reports:
            assert r.checks[1] == analysis.check_abort_safety(
                r.params, 1.0, 3.5, 0.2, math.inf
            )

    @pytest.mark.parametrize("name", ["fixture", "bench_seed1"])
    def test_gate_bisects_the_gammas(self, monkeypatch, name):
        # at each k the gate finds the two ends of the passing run by
        # bisection over the n distinct gammas, ceil(log2(n + 1)) windows
        # each; `check_corner_cutting` reads one more per passing pair
        inputs = digest_inputs(name)
        calls = []
        real = analysis._corner_window
        monkeypatch.setattr(analysis, "_corner_window",
                            lambda *args: calls.append(args) or real(*args))
        reports = analysis.find_feasible(**inputs)
        pairs = {(r.params.k, r.params.delta_d0) for r in reports}
        n_gamma = len({g for g in inputs["gamma_grid"] if g > 0})
        n_k = len({k for k in inputs["k_grid"] if k > 0})
        per_k = 2 * math.ceil(math.log2(n_gamma + 1))
        assert pairs and per_k < n_gamma
        assert len(calls) <= n_k * per_k + len(pairs)

    @settings(max_examples=300)
    @given(st.data())
    def test_window_verdicts_are_monotone_in_gamma(self, data):
        # the premise of the gate's bisection: along the sorted gammas,
        # at fixed k, rising turns true at most once and falling false at
        # most once, and the four rows hold exactly where both do
        k = data.draw(st.floats(1e-3, 3.0))
        alpha = data.draw(st.floats(0.05, 0.95))
        c3 = data.draw(bounds)
        kappa0 = data.draw(st.floats(-0.3, 0.3).filter(lambda x: abs(x) > 1e-6))
        ak0 = abs(kappa0)
        # the gammas where k meets k_lower, k_upper and the steady bound
        edges = [(k / ak0) ** 2 - 1.0, 1.0 / (1.0 + (ak0 / k) ** 2),
                 c3 * k * k / ak0]
        specials = [analysis.GAMMA_LOWER, 1.0, *edges]
        specials += [math.nextafter(g, to) for g in specials
                     for to in (0.0, math.inf)]
        gamma = st.one_of(
            st.floats(1e-6, 10.0),
            st.sampled_from([g for g in specials if 1e-6 <= g <= 10.0]),
        )
        gammas = sorted(data.draw(st.lists(gamma, min_size=1, max_size=12)))
        rising, falling = [], []
        for g in gammas:
            params = PlannerParams(k, 1.0, alpha, g / (alpha * k), 1.0)
            *_, ok, up, down = analysis._corner_window(params, kappa0, c3)
            assert all(ok) == (up and down)
            rising.append(up)
            falling.append(down)
        assert rising == sorted(rising)
        assert falling == sorted(falling, reverse=True)

    @pytest.mark.parametrize("kappa0", [FIXTURE_DATA["inputs"]["kappa0"], 0.0],
                             ids=["fixture", "straight"])
    def test_reports_are_whole_namedtuples(self, kappa0):
        # the search builds its records with tuple.__new__, which checks no
        # field count, and == cannot see a wrong one: a tuple equals a
        # NamedTuple with the same values
        reports = analysis.find_feasible(**{**FIXTURE_DATA["inputs"], "kappa0": kappa0})
        assert reports
        for report in reports:
            assert type(report) is analysis.FeasibilityReport and len(report) == 3
            assert type(report.params) is PlannerParams
            assert len(report.checks) == 3
            for check in report.checks:
                assert type(check) is analysis.CheckResult and len(check) == 2
                assert all(type(row) is analysis.CheckRow and len(row) == 5
                           for row in check.rows)

    def test_boundary_ks_skip_subnormal_lambda0(self):
        # the abort edge's peak underflows to 0 here, so its k is infinite
        inputs = dict(v=0.1, lane_width=3.5, kappa0=0.0, c1=math.inf,
                      c2=math.inf, c3=math.inf, gamma_grid=[-0.5],
                      lambda0_grid=[5e-324])
        assert boundary_ks(inputs) == []

    @pytest.mark.parametrize("bad", [
        dict(v=math.nan), dict(v=math.inf), dict(v=0.0),
        dict(lane_width=math.nan), dict(lane_width=math.inf),
        dict(kappa0=math.nan), dict(kappa0=math.inf), dict(kappa0=-math.inf),
        dict(c1=math.nan), dict(c2=-1.0), dict(c3=0.0),
        dict(alpha=math.nan),
        dict(gamma_grid=[0.995, math.inf]),
        dict(lambda0_grid=[0.5, math.nan]),
        dict(lambda0_grid=[math.inf]),
        dict(k_grid=[-math.inf, 0.12]),
        dict(k_grid=[0.12, 1e-160]),  # lam overflows
        dict(k_grid=[0.12, 1e170]),  # lam underflows to 0
        dict(gamma_grid=[5e-324], k_grid=[10.0]),  # delta_d0 underflows to 0
    ], ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()).replace(
        " ", ""
    ))
    def test_bad_input_rejected_before_the_search(self, bad):
        inputs = dict(v=1.0, lane_width=3.5, kappa0=0.01, c1=0.3, c2=0.3,
                      c3=1.0, gamma_grid=[0.995], lambda0_grid=[0.5],
                      k_grid=[0.12])
        with pytest.raises(ValueError):
            analysis.find_feasible(**{**inputs, **bad})

    def test_no_feasible_point_is_empty_list(self):
        reports = analysis.find_feasible(
            1.0, 3.5, 0.01, 0.3, 0.3, 1.0,
            gamma_grid=[0.3], lambda0_grid=[0.5], k_grid=[0.1],
        )
        assert reports == []

    def test_kappa0_squared_overflow_is_value_error(self):
        # the pair passes the corner window, and the ratio squares kappa0
        with pytest.raises(ValueError, match="overflows"):
            analysis.find_feasible(**KAPPA0_OVERFLOW)
        params = PlannerParams(1.0, 1.0, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="overflows"):
            analysis.predict_curvature_ratio(params, 1e155)

    def test_search_pauses_and_restores_the_collector(self):
        # 4554 reports, three tracked containers each: enough to start a
        # young collection many times over were the collector running
        inputs = digest_inputs("bench_seed1")
        collections = []

        def record(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        assert gc.isenabled()
        gc.callbacks.append(record)
        try:
            assert analysis.find_feasible(**inputs)
        finally:
            gc.callbacks.remove(record)
        assert collections == [] and gc.isenabled()
        # kappa0 ** 2 overflows inside the pause
        with pytest.raises(ValueError, match="overflows"):
            analysis.find_feasible(**KAPPA0_OVERFLOW)
        assert gc.isenabled()

    def test_search_leaves_a_disabled_collector_off(self):
        gc.disable()
        try:
            assert analysis.find_feasible(**FIXTURE_DATA["inputs"])
            assert not gc.isenabled()
        finally:
            gc.enable()


def test_fixture_matches_its_oracle():
    """The pinned fixture is what its brute-force generator computes."""
    spec = importlib.util.spec_from_file_location("gen_feasibility_fixture", ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    assert oracle.INPUTS == FIXTURE_DATA["inputs"]
    assert oracle.feasible_points(oracle.INPUTS) == FIXTURE_DATA["feasible"]


def jittered(rng, grid, n):
    """n sorted values, the i-th drawn uniformly inside cell i mod m of the
    m cells between consecutive grid values."""
    cells = list(zip(grid, grid[1:]))
    return sorted(rng.uniform(*cells[i % len(cells)]) for i in range(n))


@pytest.mark.parametrize("seed", range(1, 9))
def test_search_matches_oracle_on_jittered_grids(seed):
    """The search states the steady-offset bound c3 in one row; the oracle
    keeps the paper's two-term lower edge on k.  Both give the same sets."""
    spec = importlib.util.spec_from_file_location("gen_feasibility_fixture", ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    rng = random.Random(seed)
    inputs = {**oracle.INPUTS, **{
        f"{axis}_grid": jittered(rng, oracle.INPUTS[f"{axis}_grid"], 20)
        for axis in ("gamma", "lambda0", "k")
    }}
    want = oracle.feasible_points(inputs)
    got = analysis.find_feasible(**inputs)
    assert want and len(got) == len(want)
    for report, row in zip(got, want):
        p = report.params
        for value, key in ((p.gamma, "gamma"), (p.lambda0, "lambda0"),
                           (p.k, "k"), (p.lam, "lam"), (p.delta_d0, "delta_d0"),
                           (report.predicted_curvature_ratio, "predicted_ratio")):
            assert abs(value - row[key]) <= 1e-12, (key, value, row[key])


# the SHA-256 of repr([(params, predicted_curvature_ratio), ...]) of four
# searches, each taken before the search was reordered: a faster search must
# give the same sets in the same order, to the last bit of every float
SEARCH_SHA256 = {
    # seed 1's first grid of bench/lsbench.py: 40 jittered values per axis
    "bench_seed1": "7cb0aa613bf82ab3092e237c2effa4c92098e8f993af4381602440d6594238b0",
    "fixture_straight": "f038a96febefeec8ad968af4468db72a2bdd1e6e2fe611ce7acd827232a0775a",
    # seed 2's first grid, 5033 sets
    "bench_seed2": "d34f6b38325438ac401f0d2807d4bf99e3e64f5124376ddad66caa1b02c4b1c9",
    # seed 1's grid on a straight lane: every pair passes, 58440 sets
    "bench_seed1_straight": "6e7e4234d927de0029e6b8648db30bd052c4a37ab4c403caef2c644cb624585d",
}


def digest_inputs(name):
    """The fixture's inputs on the grid that `name` names: `bench_seedN` is
    seed N's first grid of bench/lsbench.py, `fixture` the fixture's own;
    a `_straight` suffix sets kappa0 to 0."""
    base, straight = name.removesuffix("_straight"), name.endswith("_straight")
    inputs = FIXTURE_DATA["inputs"]
    if base.startswith("bench_seed"):
        rng = random.Random(int(base.removeprefix("bench_seed")))
        inputs = {**inputs, **{
            f"{axis}_grid": jittered(rng, inputs[f"{axis}_grid"], 40)
            for axis in ("gamma", "lambda0", "k")
        }}
    return {**inputs, "kappa0": 0.0} if straight else inputs


@pytest.mark.parametrize("name", SEARCH_SHA256)
def test_search_digest(name):
    reports = analysis.find_feasible(**digest_inputs(name))
    text = repr([(r.params, r.predicted_curvature_ratio) for r in reports])
    assert hashlib.sha256(text.encode()).hexdigest() == SEARCH_SHA256[name]


@pytest.mark.parametrize("name", ["bench_seed1", "bench_seed1_straight"])
def test_search_builds_no_reference_cycle(name):
    """find_feasible pauses the cyclic collector because nothing it builds
    is part of a cycle: a search run with the collector off leaves, once
    its result is dropped, nothing for a collection to free."""
    inputs = digest_inputs(name)
    gc.collect()
    gc.disable()
    try:
        assert analysis.find_feasible(**inputs)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestEigenvalues:
    def test_linearized_modes(self):
        # small-signal dynamics of (e, lateral): de/dt = -e/sqrt(lam),
        # dlat/dt = -(e + k v lat) ... eigenvalues {-1/sqrt(lam), -k v}
        k, lam, v = 0.5, 1.0, 1.0
        a = np.array([[-1.0 / math.sqrt(lam), 0.0], [1.0, -k * v]])
        eig = sorted(np.linalg.eigvals(a).real)
        assert eig[0] == pytest.approx(-1.0 / math.sqrt(lam))
        assert eig[1] == pytest.approx(-k * v)
        # characteristic polynomial coefficients
        assert -np.trace(a) == pytest.approx(1.0 / math.sqrt(lam) + k * v)
        assert np.linalg.det(a) == pytest.approx(k * v / math.sqrt(lam))
