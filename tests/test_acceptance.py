"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible with
-v via the test outcome, and in captured output via the summary print).
Shared long runs are computed once in module-scoped fixtures.
"""

import hashlib
import itertools
import json
import math
import os
import random
import time

import numpy as np
import pytest

from oracles import transient as oracle
from oracles.target import target_at

from lanesteer import analysis, cli, scenario_io, sim
from lanesteer import vehicle as veh
from lanesteer.control import PlannerParams
from lanesteer.refline import ReferenceLine, wrap_angle
from lanesteer.vehicle import VehicleGeometry, VehicleState

HERE = os.path.dirname(__file__)
FIXTURE = os.path.join(HERE, "data", "feasibility_fixture.json")
with open(FIXTURE) as _fh:
    FIXTURE_INPUTS = json.load(_fh)["inputs"]


def bundled(stem: str) -> sim.Scenario:
    """A scenario file from the checkout's scenarios/ directory."""
    scenario, _ = scenario_io.load(os.path.join(cli.SCENARIOS_DIR, f"{stem}.scenario"))
    return scenario


LANE_CHANGE_FILES = {
    0.5: "lane_change_k05",
    1.0: "lane_change_k10",
    1.5: "lane_change_k15",
}


def conclude(number: int, ok: bool, description: str, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {verdict}: {description}")
    assert ok, f"criterion {number}: {description} -- {detail}"


@pytest.fixture(scope="module")
def lane_change_trio():
    out = {}
    for k, stem in LANE_CHANGE_FILES.items():
        scenario = bundled(stem)
        assert scenario.params.k == k
        # CPU time: wall-clock is unreliable on loaded CI machines
        start = time.process_time()
        record = sim.run(scenario)
        out[k] = (record, time.process_time() - start)
        assert record.completed, record.failure_reason
    return out


@pytest.fixture(scope="module")
def corner_records():
    two_point, one_point = (
        sim.run(bundled(stem)) for stem in ("corner_twopoint", "corner_onepoint")
    )
    assert two_point.completed and one_point.completed
    return two_point, one_point


def test_criterion_01_lane_change_convergence(lane_change_trio):
    ok, details = True, []
    for k in (1.0, 1.5):
        record, _ = lane_change_trio[k]
        final = record.samples[-1].y
        if abs(final - 3.5) >= 0.05:
            ok = False
        details.append(f"k={k}: final y {final:.4f}")
    ys = [s.y for s in lane_change_trio[0.5][0].samples]
    monotone = all(b >= a - 1e-9 for a, b in zip(ys, ys[1:]))
    progressed = ys[-1] > 3.0
    if not (monotone and progressed):
        ok = False
    details.append(f"k=0.5: monotone={monotone} final y {ys[-1]:.4f}")
    slowest = max(rt for _, rt in lane_change_trio.values())
    if slowest >= 1.0:
        ok = False
    details.append(f"slowest run {slowest:.3f}s")
    conclude(1, ok, "3.5 m lane change trio converges within bounds",
             "; ".join(details))


def test_criterion_02_oscillation_onset(lane_change_trio):
    low = lane_change_trio[0.5][0].metrics.lateral_rate_sign_changes
    high = lane_change_trio[1.5][0].metrics.lateral_rate_sign_changes
    ok = low == 0 and high >= 1
    conclude(2, ok, "lateral-rate sign changes: 0 at k=0.5, >=1 at k=1.5",
             f"k=0.5: {low}, k=1.5: {high}")


def test_criterion_03_error_decay_rate():
    track = sim.Track(0.0, 0.0, 0.0, (("line", 500.0),))
    geom = VehicleGeometry(l_f=1.5, l_r=1.5, u_max=10.0)
    rng = random.Random(20260823)
    worst = 0.0
    for _ in range(20):
        k = rng.uniform(0.2, 0.8)
        lam = rng.uniform(0.25, 4.0)
        if not 0 < k * math.sqrt(lam) < 0.95:
            lam = (0.9 / k) ** 2 * rng.uniform(0.3, 0.9)
        params = PlannerParams(k=k, lam=lam)
        h = 1e-3
        sc = sim.Scenario(
            track=track,
            geometry=geom,
            params=params,
            initial_state=VehicleState(
                5.0, rng.uniform(-0.5, 0.5), rng.uniform(-0.1, 0.1), 0.0
            ),
            # a whole number of periods
            duration=h * round(2.0 * math.sqrt(lam) / h),
            h=h,
            control_divisor=1,
        )
        record = sim.run(sc)
        assert record.completed and record.metrics.saturation_fraction == 0.0
        ts = np.array([s.t for s in record.samples])
        es = np.array([abs(s.e) for s in record.samples])
        mask = es > 1e-10
        slope, _ = np.polyfit(ts[mask], np.log(es[mask]), 1)
        worst = max(worst, abs(-slope - 1.0 / math.sqrt(lam)) * math.sqrt(lam))
    ok = worst < 0.005
    conclude(3, ok, "fitted |e| decay rate equals 1/sqrt(lambda) within 0.5% "
                    "over 20 randomized runs", f"worst relative error {worst:.5f}")


def _small_lane_change(abort_time=None):
    track = sim.Track(0.0, 0.0, 0.0, (("line", 500.0),))
    geom = VehicleGeometry(l_f=1.5, l_r=1.5, u_max=10.0)
    params = PlannerParams(k=0.25, lam=1.0)
    return sim.Scenario(
        track=track,
        geometry=geom,
        params=params,
        initial_state=VehicleState(0.0, 0.0, 0.0, 0.0),
        duration=40.0,
        lane_change_offset=1.0,
        abort_time=abort_time,
    )


def test_criterion_04_linearized_closed_forms():
    record = sim.run(_small_lane_change())
    assert record.completed and record.metrics.saturation_fraction == 0.0
    e0, lam, lambda0 = record.samples[0].e, 1.0, 0.25
    pred = oracle.predict_lane_change(e0, lam, lambda0)
    allow_d = max(0.05 * pred.peak_dtheta, 1e-3)
    allow_r = max(0.05 * pred.peak_dtheta_dot, 1e-3)
    max_err_d = max_err_r = peak_d = peak_r = 0.0
    for s in record.samples:
        dth = s.theta_v - s.theta_n
        rate = s.kappa_e_inst * s.v  # straight lane: the target rate is 0
        max_err_d = max(max_err_d, abs(dth - oracle.dtheta_solution(s.t, e0, lam, lambda0)))
        max_err_r = max(max_err_r, abs(rate - oracle.dtheta_dot_solution(s.t, e0, lam, lambda0)))
        if s.t > 0:
            peak_d = max(peak_d, abs(dth))
        if s.t > pred.peak_time_dtheta:
            peak_r = max(peak_r, abs(rate))
    ok = (
        max_err_d < allow_d
        and max_err_r < allow_r
        and abs(peak_d - pred.peak_dtheta) < 0.05 * pred.peak_dtheta
        and abs(peak_r - pred.peak_dtheta_dot) < 0.05 * pred.peak_dtheta_dot
    )
    conclude(4, ok, "lane-change transients match the closed forms pointwise "
                    "and at the peaks",
             f"errors {max_err_d:.5f}/{allow_d:.5f}, {max_err_r:.5f}/{allow_r:.5f}")


def test_criterion_05_abort_safety_bounds():
    c1, c2 = 0.2, 0.3
    # the lane change crosses one 1 m lane (the scenario's offset)
    check = analysis.check_abort_safety(
        _small_lane_change().params, 1.0, lane_width=1.0, c1=c1, c2=c2
    )
    assert check.satisfied
    details, ok = [], True
    for abort in (None, 1.85):
        record = sim.run(_small_lane_change(abort_time=abort))
        assert record.completed and record.metrics.saturation_fraction == 0.0
        m = record.metrics
        if not (m.peak_abs_dtheta <= 1.05 * c1 and m.peak_abs_dtheta_dot <= 1.05 * c2):
            ok = False
        details.append(
            f"abort={abort}: |dtheta| {m.peak_abs_dtheta:.4f}<={1.05 * c1}, "
            f"|dtheta_dot| {m.peak_abs_dtheta_dot:.4f}<={1.05 * c2}"
        )
    conclude(5, ok, "lane-change and abort runs respect the C1/C2 bounds",
             "; ".join(details))


def test_criterion_06_corner_cutting(corner_records):
    two_point, _ = corner_records
    p = two_point.scenario.params
    kappa0 = 0.01
    assert analysis.check_corner_cutting(p, kappa0, c3=1.0).satisfied
    m = two_point.metrics
    assert m.steady_converged
    expected_lat = analysis.predict_steady_lateral(p, kappa0)
    lat_ok = abs(m.steady_lateral - expected_lat) < 0.05 * abs(expected_lat)
    ratio = m.mean_steady_curvature / kappa0
    # Holding the constant offset d from a circle of curvature kappa0 means
    # driving the concentric circle of curvature kappa0 / (1 + d*kappa0),
    # so the exact steady ratio is 1/(1 + d*kappa0) = v_s/v.  The bound is
    # on (ratio - 1), the size of the cut, so the one-point ratio 1 fails it.
    predicted_ratio = 1.0 / (1.0 + expected_lat * kappa0)
    cut_ok = abs(m.mean_steady_curvature) > abs(kappa0)
    ratio_ok = (abs((ratio - 1.0) - (predicted_ratio - 1.0))
                < 1e-3 * abs(predicted_ratio - 1.0))
    ok = lat_ok and cut_ok and ratio_ok
    conclude(
        6, ok,
        "feasible two-point params cut the corner as predicted",
        f"steady lateral {m.steady_lateral:.4f} vs {expected_lat:.4f} "
        f"({'ok' if lat_ok else 'mismatch'}); steady curvature ratio "
        f"{ratio:.7f} ({'cut' if cut_ok else 'no cut'}: needs > 1) vs exact "
        f"1/(1 + d*kappa0) = {predicted_ratio:.7f}, (ratio - 1) within 0.1% "
        f"{'ok' if ratio_ok else 'mismatch'}",
    )


def test_criterion_07_one_point_degeneration(corner_records):
    _, one_point = corner_records
    m = one_point.metrics
    assert m.steady_converged
    ratio = m.mean_steady_curvature / 0.01
    ok = abs(ratio - 1.0) < 0.01 and abs(m.steady_lateral) < 1e-3
    conclude(7, ok, "alpha = 0 tracks the lane center with ratio 1",
             f"ratio {ratio:.5f}, steady lateral {m.steady_lateral:.2e}")


def _brute_force_positions(line, n):
    """Sample n frame positions along the whole line with numpy."""
    stations = np.linspace(0.0, line.total_length, n)
    xs = np.empty(n)
    ys = np.empty(n)
    start = 0.0
    from lanesteer.refline import ArcSegment, StraightSegment

    for seg in line.segments:
        mask = (stations >= start) & (stations <= start + seg.length)
        local = stations[mask] - start
        if isinstance(seg, StraightSegment):
            xs[mask] = seg.x0 + local * math.cos(seg.heading)
            ys[mask] = seg.y0 + local * math.sin(seg.heading)
        elif isinstance(seg, ArcSegment):
            phi = seg.start_angle + seg.turn * local / seg.radius
            xs[mask] = seg.cx + seg.radius * np.cos(phi)
            ys[mask] = seg.cy + seg.radius * np.sin(phi)
        start += seg.length
    return stations, xs, ys


def test_criterion_08_projection_oracle():
    line = ReferenceLine.from_pieces(
        0.0, 0.0, 0.0,
        [
            ("line", 50.0),
            ("arc", 0.5 * math.pi * 20.0, 1.0 / 20.0),
            ("line", 30.0),
            ("arc", 0.5 * math.pi * 40.0, -1.0 / 40.0),
        ],
    )
    stations, xs, ys = _brute_force_positions(line, 1_000_000)
    rng = random.Random(7)
    worst_d = worst_p = 0.0
    checked = 0
    while checked < 50:
        s = rng.uniform(2.0, line.total_length - 2.0)
        lat = rng.uniform(-5.0, 5.0)
        f = line.point_at(s)
        pos = (f.position[0] - lat * f.normal[0], f.position[1] - lat * f.normal[1])
        res = line.project(pos)
        d2 = (xs - pos[0]) ** 2 + (ys - pos[1]) ** 2
        idx = int(np.argmin(d2))
        worst_d = max(worst_d, abs(math.sqrt(d2[idx]) - abs(res.signed_lateral)))
        worst_p = max(
            worst_p,
            math.hypot(xs[idx] - res.frame.position[0], ys[idx] - res.frame.position[1]),
        )
        checked += 1
    ok = worst_d < 1e-4 and worst_p < 1e-4
    conclude(8, ok, "projection agrees with the brute-force search on 50 poses",
             f"worst distance err {worst_d:.2e}, worst foot err {worst_p:.2e}")


def _random_chain(rng):
    """A G1 chain of 2-4 line/arc pieces, 5-30 m each, with radii of at
    least 6.7 m, from a random start pose."""
    pieces = []
    for _ in range(rng.randint(2, 4)):
        length = rng.uniform(5.0, 30.0)
        if rng.random() < 0.3:
            pieces.append(("line", length))
        else:
            kappa = rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 0.15)
            pieces.append(("arc", length, kappa))
    return ReferenceLine.from_pieces(
        rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0),
        rng.uniform(-math.pi, math.pi), pieces,
    )


def test_criterion_08_projection_oracle_at_junctions():
    # 80 poses within 1 cm of each junction of 8 random chains, up to 3 m to
    # either side.  The brute force samples every 0.2 mm and searches the
    # samples within 6.1 m of the junction: the closest point is at most
    # 3.01 m from a pose that is at most 3.01 m from the junction
    rng = random.Random(11)
    worst_d = worst_p = worst_lat = 0.0
    checked = 0
    for _ in range(8):
        line = _random_chain(rng)
        # continuity holds by construction, on the chain and its offsets
        for chain in (line, line.parallel_offset(3.5), line.parallel_offset(-3.5)):
            for prev, nxt in itertools.pairwise(chain.segments):
                ex, ey, eh = prev.end_pose()
                start = nxt.frame_at(0.0, 0.0)
                assert math.hypot(ex - start.position[0], ey - start.position[1]) <= 1e-9
                assert abs(wrap_angle(eh - start.orientation)) <= 1e-9
        _, xs, ys = _brute_force_positions(line, math.ceil(line.total_length / 2e-4) + 1)
        for junction in itertools.accumulate(seg.length for seg in line.segments[:-1]):
            jx, jy = line.point_at(junction).position
            near = (np.abs(xs - jx) < 6.1) & (np.abs(ys - jy) < 6.1)
            near_x, near_y = xs[near], ys[near]
            for _ in range(80):
                f = line.point_at(junction + rng.uniform(-0.01, 0.01))
                lat = rng.uniform(-3.0, 3.0)
                pos = (f.position[0] - lat * f.normal[0], f.position[1] - lat * f.normal[1])
                res = line.project(pos)
                d2 = (near_x - pos[0]) ** 2 + (near_y - pos[1]) ** 2
                idx = int(np.argmin(d2))
                worst_d = max(worst_d, abs(math.sqrt(d2[idx]) - abs(res.signed_lateral)))
                worst_p = max(worst_p, math.hypot(near_x[idx] - res.frame.position[0],
                                                  near_y[idx] - res.frame.position[1]))
                worst_lat = max(worst_lat, abs(res.signed_lateral - lat))
                checked += 1
    # a sample lies within half the 0.2 mm spacing of the closest point, and
    # the pose's own foot is the closest: the lateral it was placed at
    ok = worst_d < 2e-4 and worst_p < 2e-4 and worst_lat < 1e-9
    conclude(8, ok, f"projection agrees with the brute-force search on {checked} "
                    "poses at the junctions of random chains",
             f"worst distance err {worst_d:.2e}, worst foot err {worst_p:.2e}, "
             f"worst signed lateral err {worst_lat:.2e}")


def test_criterion_09_property_suite(lane_change_trio, corner_records):
    details, ok = [], True
    # steering gain is the derivative of the slip angle
    geom = VehicleGeometry(l_f=1.3, l_r=1.7)
    eps = 1e-6
    gain_err = max(
        abs(
            veh.slip_and_gain(geom, d)[1]
            - (veh.slip_and_gain(geom, d + eps)[0] - veh.slip_and_gain(geom, d - eps)[0])
            / (2 * eps)
        )
        for d in np.linspace(-1.4, 1.4, 57)
    )
    if gain_err > 1e-6:
        ok = False
    details.append(f"gain vs finite difference {gain_err:.2e}")
    # shadow-ray orthogonality across all acceptance runs
    worst_dot = 0.0
    records = [r for r, _ in lane_change_trio.values()] + list(corner_records)
    for record in records:
        for s in record.samples:
            target = target_at(record.scenario, s.t)
            res = target.project((s.x, s.y))
            r = (res.frame.position[0] - s.x, res.frame.position[1] - s.y)
            nx, ny = res.frame.normal
            t = (ny, -nx)
            worst_dot = max(worst_dot, abs(r[0] * t[0] + r[1] * t[1]))
    if worst_dot > 1e-6:
        ok = False
    details.append(f"max |<r, x_s>| {worst_dot:.2e}")
    # determinism: an independent rerun is bit-identical
    again = sim.run(bundled(LANE_CHANGE_FILES[1.0]))
    if again.samples != lane_change_trio[1.0][0].samples:
        ok = False
    details.append("rerun bit-identical" if again.samples == lane_change_trio[1.0][0].samples
                   else "rerun differs")
    # exact golden-ratio lower bound
    if analysis.GAMMA_LOWER != (math.sqrt(5.0) - 1.0) / 2.0:
        ok = False
    conclude(9, ok, "property suite: gain derivative, shadow orthogonality, "
                    "determinism, exact gamma bound", "; ".join(details))


# the SHA-256 of each bundled scenario's CSV, as bench/lsbench.py pins them:
# output must stay the same to the last bit of every float
CSV_SHA256 = {
    "corner_onepoint": "27f49b6068332be88a2b76703078b4cc12d84341f89e2bd52bc51bdbfc505b02",
    "corner_twopoint": "a32d93f53219210fd395b8947943de31d46c795d54fdfe882a2c7d23bf0661ab",
    "lane_change_k05": "f4524982776e1e7677d7800cc1dd35e9d5281f28e5c00e9880f0c5622adcf2ed",
    "lane_change_k10": "ebe5f4a3f539b9e37ad188e6982125803cfb7780a890bb3858909d3a037246fb",
    "lane_change_k15": "168dfb4e0e0f0edcc9476544dc3eabae6a8fba26672c058972f7fb738b60b02b",
}


def test_bundled_scenario_csv_digests(lane_change_trio, corner_records, tmp_path):
    records = {stem: lane_change_trio[k][0] for k, stem in LANE_CHANGE_FILES.items()}
    records["corner_twopoint"], records["corner_onepoint"] = corner_records
    assert records.keys() == CSV_SHA256.keys()
    for stem, record in records.items():
        path = tmp_path / f"{stem}.csv"
        sim.write_csv(path, record.samples)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CSV_SHA256[stem], stem


# the SHA-256 of repr(record.metrics) of each bundled scenario: the CSV
# digests hold the samples, these what metrics_from_samples makes of them
METRICS_SHA256 = {
    "corner_onepoint": "fd7312b1a4198d9d95aa54ee2a47cf8e801a6770daa1d9f64b27e7cab7d0cfd4",
    "corner_twopoint": "ba0ce2dc211207b67d41218ad0aa770f2ad24e7a2f5183b738c0634dc0b51a2c",
    "lane_change_k05": "cd8403d78d4c1223c9a42d1413763cfd5e84c3662a802ba0267f395c4ca0196d",
    "lane_change_k10": "978e1c4ffa0c4c9bb56234913a0a69e495ba19daf994693d7ab019bf38a6233c",
    "lane_change_k15": "3a7e03a1c24a69a2db49bdb1a8782190402f518129d811798ad5aec87423b68f",
}


def test_bundled_scenario_metrics_digests(lane_change_trio, corner_records):
    records = {stem: lane_change_trio[k][0] for k, stem in LANE_CHANGE_FILES.items()}
    records["corner_twopoint"], records["corner_onepoint"] = corner_records
    assert records.keys() == METRICS_SHA256.keys()
    for stem, record in records.items():
        digest = hashlib.sha256(repr(record.metrics).encode()).hexdigest()
        assert digest == METRICS_SHA256[stem], stem


def test_criterion_10_feasibility_fixture(capsys):
    with open(FIXTURE) as fh:
        fx = json.load(fh)
    inp = fx["inputs"]
    code = cli.main([
        "feasibility",
        "--v", str(inp["v"]), "--lane-width", str(inp["lane_width"]),
        "--kappa0", str(inp["kappa0"]), "--c1", str(inp["c1"]),
        "--c2", str(inp["c2"]), "--c3", str(inp["c3"]),
        "--alpha", str(inp["alpha"]),
        "--grid", "gamma=" + ",".join(map(str, inp["gamma_grid"])),
        "--grid", "lambda0=" + ",".join(map(str, inp["lambda0_grid"])),
        "--grid", "k=" + ",".join(map(str, inp["k_grid"])),
    ])
    out = capsys.readouterr().out
    sets = [line for line in out.splitlines() if line.startswith("SET ")]
    ok = code == 0 and len(sets) == len(fx["feasible"])
    if ok:
        for line, row in zip(sets, fx["feasible"]):
            fields = dict(item.split("=") for item in line[len("SET "):].split())
            for key, col in (("gamma", "gamma"), ("lambda0", "lambda0"),
                             ("k", "k"), ("ratio", "predicted_ratio")):
                if abs(float(fields[key]) - row[col]) > 1e-12:
                    ok = False
    conclude(10, ok, "feasibility search reproduces the committed fixture "
                     "exactly", f"{len(sets)} sets vs {len(fx['feasible'])}")


def test_criterion_11_path_independent_of_axle_geometry():
    # the law steers theta_v = psi + beta, and the model enters only through
    # beta(delta) and its gain: the path must not depend on where the axles
    # sit, while the heading must
    base = _small_lane_change()._replace(duration=20.0)
    records = [
        sim.run(base._replace(geometry=VehicleGeometry(l_f, l_r, u_max=10.0)))
        for l_f, l_r in ((1.5, 1.5), (1.0, 2.0), (2.0, 1.0), (0.8, 2.6))
    ]
    assert all(r.completed and r.metrics.saturation_fraction == 0.0 for r in records)
    rows = list(zip(*(r.samples for r in records)))
    position_spread = max(
        math.dist((a.x, a.y), (b.x, b.y)) for row in rows for a in row for b in row
    )
    psi_spread = max(max(s.psi for s in row) - min(s.psi for s in row) for row in rows)
    ok = position_spread < 1e-3 and psi_spread > 0.01
    conclude(11, ok, "four axle geometries drive one path (within 1 mm) with "
                     "headings more than 0.01 rad apart",
             f"position spread {position_spread:.2e} m, psi spread {psi_spread:.4f} rad")


def test_criterion_12_lqr_optimality():
    # u_c = -e/(g sqrt(lam)) minimizes J = int e^2 + lam (de/dt)^2 dt, at
    # cost sqrt(lam) e0^2; a run with any other lam' costs more under the
    # same weight lam (J(0.85)/J(1) - 1 = 3.3e-3 in closed form)
    base = _small_lane_change()._replace(duration=20.0)
    lam = base.params.lam
    costs = {}
    for lam_run in (0.7, 0.85, 1.0, 1.15, 1.3):
        record = sim.run(base._replace(params=base.params._replace(lam=lam_run)))
        assert record.completed and record.metrics.saturation_fraction == 0.0
        t = np.array([s.t for s in record.samples])
        e = np.array([s.e for s in record.samples])
        costs[lam_run] = np.trapezoid(e ** 2 + lam * np.gradient(e, t) ** 2, t)
    e0 = record.samples[0].e
    optimum = math.sqrt(lam) * e0 ** 2
    own = costs.pop(lam)
    ok = abs(own / optimum - 1) < 1e-3 and all(c > own for c in costs.values())
    conclude(12, ok, "J at the run's own lambda is sqrt(lambda) e0^2 within 0.1%, "
                     "and every other lambda' costs more",
             f"J/optimum {own / optimum:.6f}, others "
             + ", ".join(f"{k}: {c / optimum:.6f}" for k, c in costs.items()))


def test_criterion_13_lane_change_on_a_curve():
    # An offset d (+ toward the center) on the R = 100 m corner targets the
    # concentric circle of curvature kappa' = kappa0 / (1 - d kappa0).  The
    # two-point runs take the file's 300 s: over 150 s their steady window
    # matches the kappa' prediction only to 4e-6.  The one-point runs are
    # held to their peak, at t = 5.8 s, so 60 s is enough.
    # The peaks not bounded: the two-point run starts on the lane center, not
    # where it settles, about 0.7 m inside its target, so its initial error is not
    # -k d, and its peaks (0.2487 inward, 0.1715 outward) lie 18 % either side
    # of the closed form's 0.2100.  At +-10 m the one-point peak nears 0.6 rad,
    # beyond the linearized loop: 0.5589 (-6.8 %) and 0.5962 on the curve, and
    # 0.5786 (-3.6 %) either way on a straight lane.
    kappa0 = 0.01
    two_point, one_point = bundled("corner_twopoint"), bundled("corner_onepoint")
    ok, details = True, []
    for d in (3.5, -3.5):
        record = sim.run(two_point._replace(lane_change_offset=d))
        m = record.metrics
        assert record.completed and m.steady_converged
        assert m.saturation_fraction == 0.0
        p = two_point.params
        curved = analysis.predict_steady_lateral(p, kappa0 / (1.0 - d * kappa0))
        miss = abs(m.steady_lateral / curved - 1.0)
        # the prediction on the lane's own curvature misses by about 3.5 %
        flat = analysis.predict_steady_lateral(p, kappa0)
        miss_kappa0 = abs(m.steady_lateral / flat - 1.0)

        record = sim.run(one_point._replace(lane_change_offset=d, duration=60.0))
        assert record.completed and record.metrics.saturation_fraction == 0.0
        p = one_point.params
        peak = record.metrics.peak_abs_dtheta
        closed = oracle.predict_lane_change(-p.k * d, p.lam, p.lambda0).peak_dtheta
        ok = ok and miss < 1e-6 < miss_kappa0 and abs(peak - closed) < 0.03 * closed
        details.append(
            f"d={d}: steady lateral {m.steady_lateral:.5f}, miss {miss:.1e} "
            f"(kappa0: {miss_kappa0:.1e}); one-point peak {peak:.4f} vs {closed:.4f}"
        )
    conclude(13, ok, "a lane change either way on the corner settles at the "
                     "target's steady offset and peaks as on a straight lane",
             "; ".join(details))


def test_criterion_14_abort_at_every_time():
    # Unsaturated, the response after an abort at tau is the plain one minus
    # a copy of it started at tau.  lambda0 < 1 keeps dtheta of one sign, so
    # no abort time lifts |dtheta| above the plain peak; the rate's worst
    # abort is at 2 t*, where the closed form puts it.  Abort times cluster
    # at t* and 2 t*; 12 s holds the peaks of the latest abort, 3 t* + t*
    # <= 11.1 s, and keeps the 21 runs near 1 s.
    ok, details = True, []
    for (k, lam), factor in (((0.25, 1.0), 1.0992), ((0.5, 1.0), 1.125),
                             ((0.25, 4.0), 1.125)):
        base = _small_lane_change()._replace(
            params=PlannerParams(k=k, lam=lam), duration=12.0
        )
        plain = sim.run(base)
        assert plain.completed and plain.metrics.saturation_fraction == 0.0
        e0, lambda0 = plain.samples[0].e, base.params.lambda0
        t_star = oracle.predict_lane_change(e0, lam, lambda0).peak_time_dtheta
        worst_d = worst_r = 0.0
        for tau in (0.5 * t_star, t_star, 2.0 * t_star - 0.05, 2.0 * t_star,
                    2.0 * t_star + 0.05, 3.0 * t_star):
            record = sim.run(base._replace(abort_time=tau))
            assert record.completed and record.metrics.saturation_fraction == 0.0
            worst_d = max(worst_d, record.metrics.peak_abs_dtheta)
            worst_r = max(worst_r, record.metrics.peak_abs_dtheta_dot)
        closed = oracle.worst_abort_dtheta_dot(e0, lam, lambda0)
        assert closed * math.sqrt(lam) / abs(e0) == pytest.approx(factor, abs=1e-4)
        peak_d = plain.metrics.peak_abs_dtheta
        ok = (ok and worst_d <= peak_d * (1.0 + 1e-12)
              and abs(worst_r / closed - 1.0) < 0.01)
        details.append(
            f"k={k}, lam={lam}: |dtheta| {worst_d:.5f} vs plain {peak_d:.5f}, "
            f"|dtheta_dot| {worst_r:.5f} vs {closed:.5f}"
        )
    conclude(14, ok, "no abort time lifts |dtheta| above the plain peak, and the "
                     "worst |dtheta_dot| matches the closed form within 1%",
             "; ".join(details))


def _fixture_params(k, lambda0, gamma=None):
    """Planner parameters of one feasibility grid point, built as
    `find_feasible` builds them at the fixture's v and alpha; the one-point
    planner without gamma."""
    v, alpha = FIXTURE_INPUTS["v"], FIXTURE_INPUTS["alpha"]
    lam = (lambda0 / (k * v)) ** 2
    if gamma is None:
        return PlannerParams(k, lam, v_s=v)
    return PlannerParams(k, lam, alpha, gamma / (alpha * k), v)


def _failing_rows(params, kappa0):
    """The rows of the three checks that params fail, at the fixture's
    limits and lane width, on a lane of curvature kappa0."""
    inp = FIXTURE_INPUTS
    checks = (
        analysis.check_oscillation(params),
        analysis.check_abort_safety(params, inp["v"], inp["lane_width"],
                                    inp["c1"], inp["c2"]),
        analysis.check_corner_cutting(params, kappa0, inp["c3"]),
    )
    return [f"{check.name}.{row.name}" for check in checks for row in check.rows
            if not row.satisfied]


@pytest.mark.parametrize("k, accepted", [(0.09, False), (0.0997, False),
                                         (0.11, True)])
def test_steady_row_predicts_the_corner_run(k, accepted):
    """Both sides of the steady-offset row: a set it alone rejects settles
    beyond c3 on the fixture's corner, and the accepted one inside."""
    kappa0, c3 = FIXTURE_INPUTS["kappa0"], FIXTURE_INPUTS["c3"]
    params = _fixture_params(k, 0.5, gamma=0.995)
    assert _failing_rows(params, kappa0) == (
        [] if accepted else ["corner_cutting.steady_lateral_bound"]
    )
    track = sim.Track(0.0, 0.0, 0.0, (("arc", 2.0 * math.pi / kappa0, kappa0),))
    record = sim.run(sim.Scenario(
        track=track,
        geometry=VehicleGeometry(l_f=1.5, l_r=1.5),
        params=params,
        initial_state=VehicleState(0.0, 0.0, 0.0, 0.0),
        duration=150.0,
        h=0.01,
        control_divisor=10,
    ))
    m = record.metrics
    assert record.completed and m.steady_converged
    assert m.saturation_fraction == 0.0
    assert m.steady_lateral == pytest.approx(
        analysis.predict_steady_lateral(params, kappa0), rel=1e-4
    )
    if accepted:
        assert abs(m.steady_lateral) < c3
    else:
        assert abs(m.steady_lateral) > c3


@pytest.mark.parametrize("k, accepted", [(0.2, False), (0.17, True),
                                         (0.15, True)])
def test_abort_c1_row_predicts_the_lane_change(k, accepted):
    """Both sides of the abort-safety c1 row: a set it alone rejects peaks
    above c1 in an unsaturated lane change across the fixture's lane, and
    the accepted ones at or below it."""
    c1, lane_width = FIXTURE_INPUTS["c1"], FIXTURE_INPUTS["lane_width"]
    params = _fixture_params(k, 0.5)
    assert _failing_rows(params, 0.0) == (
        [] if accepted else ["abort_safety.abort_peak_vs_c1"]
    )
    record = sim.run(sim.Scenario(
        track=sim.Track(0.0, 0.0, 0.0, (("line", 500.0),)),
        geometry=VehicleGeometry(l_f=1.5, l_r=1.5, u_max=10.0),
        params=params,
        initial_state=VehicleState(0.0, 0.0, 0.0, 0.0),
        duration=120.0,
        h=0.01,
        control_divisor=10,
        lane_change_offset=lane_width,
    ))
    m = record.metrics
    assert record.completed and m.saturation_fraction == 0.0
    if accepted:
        assert m.peak_abs_dtheta <= c1
    else:
        assert m.peak_abs_dtheta > c1
