"""Differential test of one control period against tests/oracles/control_period.py.

The pinned CSV digests of the benchmark cover single-segment tracks only.
Here `ReferenceLine.project` and `control.plan_step` must return the
oracle's `ShadowResult`, and its `Sample` and orientation-difference rate,
bit for bit, or raise the same error class, on criterion 8's random G1
chains: poses on both sides of every junction and at both line ends, and
on a U-turn that comes back near itself; alpha in {0, 0.5} and delta_d0
zero or positive.  Saturated wheel-rate commands, and `point_at` at and
just past either end of its station range, are compared the same way.
"""

import itertools
import math
import random

from oracles import control_period as oracle
from test_acceptance import _random_chain

from lanesteer import control as ctl
from lanesteer.control import PlannerParams
from lanesteer.errors import (
    ArcCenterSingularityError,
    PlannerError,
    ProjectionAmbiguityError,
    StationRangeError,
    SteeringDomainError,
)
from lanesteer.refline import ReferenceLine
from lanesteer.vehicle import VehicleGeometry, VehicleState

GEOM = VehicleGeometry(l_f=1.2, l_r=1.6)

PARAMS = [
    PlannerParams(k=0.5, lam=1.0, alpha=alpha, delta_d0=delta_d0)
    for alpha, delta_d0 in itertools.product((0.0, 0.5), (0.0, 4.0))
]

# the start time of the sampled control period
T = 0.3


def _bits(value):
    """float.hex of every number in a (nested) record: -0.0 and 0.0 differ."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return float(value).hex()


def _outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except PlannerError as exc:
        return type(exc)


def _pose(line, station, lateral, longitudinal, rng):
    """State at `lateral` off the frame at `station` (the station clamped to
    the line), moved `longitudinal` along its tangent, heading within 0.6 rad
    of the line and with a random wheel angle."""
    f = line.point_at(min(max(station, 0.0), line.total_length))
    (x, y), (nx, ny) = f.position, f.normal
    tx, ty = ny, -nx
    return VehicleState(
        x - lateral * nx + longitudinal * tx,
        y - lateral * ny + longitudinal * ty,
        f.orientation + rng.uniform(-0.6, 0.6),
        rng.uniform(-0.5, 0.5),
    )


def _states(line, rng):
    junctions = list(itertools.accumulate(seg.length for seg in line.segments[:-1]))
    for junction in junctions:
        for side in (-1.0, 1.0):
            for _ in range(10):
                station = junction + side * rng.uniform(1e-9, 0.5)
                yield _pose(line, station, rng.uniform(-3.0, 3.0), 0.0, rng)
        yield _pose(line, junction, rng.uniform(-3.0, 3.0), 0.0, rng)
    # either end of the line, inside and past it
    for station, direction in ((0.0, -1.0), (line.total_length, 1.0)):
        for _ in range(6):
            longitudinal = direction * rng.uniform(-0.5, 0.5)
            yield _pose(line, station, rng.uniform(-3.0, 3.0), longitudinal, rng)


def test_project_and_plan_step_match_the_oracle_bit_for_bit():
    rng = random.Random(11)
    lines = [_random_chain(rng) for _ in range(8)]
    # a U-turn comes back 10 m from itself: its midline is ambiguous, and
    # (20, 5) is the center of its arc
    u_turn = ReferenceLine.from_pieces(
        0.0, 0.0, 0.0, [("line", 20.0), ("arc", 5.0 * math.pi, 0.2), ("line", 20.0)]
    )
    lines += [
        ReferenceLine.from_pieces(0.0, 0.0, 0.0, [("line", 30.0)]),
        ReferenceLine.from_pieces(0.0, -100.0, 0.0, [("arc", 40.0, 0.01)]),
        u_turn,
    ]
    pose_rng = random.Random(13)
    u_turn_states = [VehicleState(x, 5.0, 0.0, 0.1) for x in (2.0, 10.0, 18.0, 20.0)]
    seen = {}
    compared = 0
    for line in lines:
        states = list(_states(line, pose_rng))
        if line is u_turn:
            states += u_turn_states
        for state in states:
            position = (state.x, state.y)
            got = _outcome(line.project, position)
            assert got == _outcome(oracle.project, line, position), (line, state)
            for params in PARAMS:
                got = _outcome(ctl.plan_step, line, GEOM, state, params, T)
                want = _outcome(oracle.plan_step, line, GEOM, state, params, T)
                assert got == want, (line, state, params)
                key = got if isinstance(got, type) else "sample"
                seen[key] = seen.get(key, 0) + 1
                compared += 1
    # most poses yield a sample; the ones at and past the line ends, or
    # looking ahead past the end, raise StationRangeError; the U-turn's
    # midline and arc center raise the other two
    assert len(lines[0].segments) > 1
    assert seen["sample"] > 0.7 * compared
    assert seen.keys() == {
        "sample",
        StationRangeError,
        ProjectionAmbiguityError,
        ArcCenterSingularityError,
    }


def test_steering_domain_error_matches_the_oracle():
    line = _random_chain(random.Random(11))
    f = line.point_at(1.0)
    for delta in (math.pi / 2, -math.pi / 2, 2.0, math.nan):
        state = VehicleState(*f.position, f.orientation, delta)
        for params in PARAMS:
            got = _outcome(ctl.plan_step, line, GEOM, state, params, T)
            assert got is SteeringDomainError
            assert got is _outcome(oracle.plan_step, line, GEOM, state, params, T)


def test_saturated_commands_match_the_oracle():
    line = ReferenceLine.from_pieces(0.0, 0.0, 0.0, [("line", 30.0)])
    # heading 1 rad left of the line asks for a wheel rate below -u_max,
    # 1 rad right of it for one above +u_max
    for heading, bound in ((1.0, -GEOM.u_max), (-1.0, GEOM.u_max)):
        state = VehicleState(5.0, 0.0, heading, 0.0)
        for params in PARAMS:
            got = ctl.plan_step(line, GEOM, state, params, T)
            sample = got[0]
            assert sample.u_applied == bound and abs(sample.u_s + sample.u_c) > GEOM.u_max
            assert _bits(got) == _outcome(oracle.plan_step, line, GEOM, state, params, T)


def test_point_at_matches_the_oracle_at_the_clamps():
    rng = random.Random(11)
    lines = [_random_chain(rng) for _ in range(8)] + [
        ReferenceLine.from_pieces(0.0, 0.0, 0.0, [("line", 30.0)]),
        ReferenceLine.from_pieces(0.0, -100.0, 0.0, [("arc", 40.0, 0.01)]),
    ]
    for line in lines:
        total = line.total_length
        junctions = itertools.accumulate(seg.length for seg in line.segments[:-1])
        # inside the 1e-12 tolerance the station is clamped; past it, rejected
        for s in (-2e-12, -1e-13, -0.0, 0.0, *junctions, total, total + 1e-13,
                  total + 2e-12):
            assert _outcome(line.point_at, s) == _outcome(oracle.point_at, line, s), (
                line, s)
