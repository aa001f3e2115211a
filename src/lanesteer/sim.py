"""Deterministic closed-loop simulator and run metrics.

A scenario couples a reference line, a vehicle, and planner parameters.
Lane changes are realized by swapping the target to a parallel offset
track (so the initial error is exactly -k * offset), and an abort swaps
the target back at a given time.  Integration is fixed-step RK4 with the
wheel-rate command held over each control period; everything is seed-free
and bit-reproducible.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple

from . import control as ctl
from . import vehicle as veh
from .control import PlannerParams, Sample
from .errors import PlannerError, ScenarioValidationError
from .refline import ReferenceLine, wrap_angle
from .vehicle import VehicleGeometry, VehicleState

# sub-threshold lateral rates are treated as zero by the sign-change counter
_RATE_DEADBAND = 1e-3

_STEADY_AGREE_TOL = 1e-2

# the most RK4 steps one run may take; README.md states what they cost
_MAX_STEPS = 10 ** 8

# builds a record without the NamedTuple constructor's Python-level __new__
_tuple_new = tuple.__new__


class Track(NamedTuple):
    """What a scenario file's [track] states, the arguments of
    `ReferenceLine.from_pieces`: a start pose (m, m, rad) and a tuple of
    ("line", length) and ("arc", length, curvature) pieces."""

    start_x: float
    start_y: float
    start_heading: float
    pieces: tuple

    def line(self) -> ReferenceLine:
        """The reference line, built anew on each call."""
        return ReferenceLine.from_pieces(*self)


# the fields of Scenario: a NamedTuple body may not define __new__ or _make,
# so Scenario subclasses this one
class _ScenarioFields(NamedTuple):
    track: Track
    geometry: VehicleGeometry
    params: PlannerParams
    initial_state: VehicleState
    duration: float  # s
    h: float = 1e-3  # s, integration step
    control_divisor: int = 10  # control period = control_divisor * h
    lane_change_offset: float | None = None  # m, +normal direction
    abort_time: float | None = None  # s, swap target back to track


class Scenario(_ScenarioFields):
    """A track, a vehicle and planner parameters, and how long to run them.

    A 9-tuple whose one constructor checks every field, so that `_make`,
    `_replace`, copies and unpickling validate too.
    """

    __slots__ = ()

    # repeats the defaults of _ScenarioFields, whose __new__ this replaces
    def __new__(cls, track, geometry, params, initial_state, duration, h=1e-3,
                control_divisor=10, lane_change_offset=None, abort_time=None):
        if not 0 < duration < math.inf:
            raise ValueError("duration must be positive and finite")
        if not 0 < h < math.inf:
            raise ValueError("integration step must be positive and finite")
        if not isinstance(control_divisor, int) or control_divisor < 1:
            raise ValueError("control divisor must be an integer of at least 1")
        # run takes round(duration / period) periods, which must be the
        # duration itself: at least one, and whole to 1e-9 of the duration.
        # Each period takes control_divisor RK4 steps, at most _MAX_STEPS in
        # all, which also keeps t = i * period exact (below 2**53)
        periods = duration / (control_divisor * h)
        if not (periods * control_divisor <= _MAX_STEPS and round(periods) >= 1
                and abs(round(periods) - periods) <= 1e-9 * periods):
            raise ValueError(
                "duration must be a whole number of control periods "
                "control_divisor * h, with at most 10**8 RK4 steps in all"
            )
        if not all(map(math.isfinite, initial_state)):
            raise ValueError("initial state must be finite")
        if lane_change_offset is not None and not math.isfinite(lane_change_offset):
            raise ValueError("lane-change offset must be finite")
        if abort_time is not None:
            if lane_change_offset is None:
                raise ValueError("abort_time requires a lane-change offset")
            if not 0 <= abort_time < duration:
                raise ValueError("abort_time must lie in [0, duration)")
        # only to reject a bad track or an offset that collapses an arc
        line = track.line()
        if lane_change_offset is not None:
            line.parallel_offset(lane_change_offset)
        return _tuple_new(cls, (track, geometry, params, initial_state, duration,
                                h, control_divisor, lane_change_offset, abort_time))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class RunMetrics(NamedTuple):
    peak_abs_dtheta: float
    peak_abs_dtheta_dot: float
    final_lateral: float  # m, displacement from the original track (+normal)
    settle_time: float
    lateral_rate_sign_changes: int
    mean_steady_curvature: float  # 1/m, mean kappa_e over the steady window
    steady_lateral: float  # m, mean signed lateral (vs current target)
    steady_converged: bool
    saturation_fraction: float


class RunRecord(NamedTuple):
    scenario: Scenario
    samples: tuple[Sample, ...]
    metrics: RunMetrics
    failure_reason: str | None = None

    @property
    def completed(self) -> bool:
        return self.failure_reason is None


def run(scenario: Scenario) -> RunRecord:
    """Integrate the closed loop and collect one sample per control period.

    Planner or integration errors terminate the run early; the partial
    record is returned with the reason attached (completed = False).
    """
    geom, params = scenario.geometry, scenario.params
    state = scenario.initial_state
    h = scenario.h
    period = scenario.control_divisor * h
    n_periods = round(scenario.duration / period)
    # looked up per run, not at import, so that a wrapped or patched
    # plan_step or vehicle.step still sees every call
    plan_step, step = ctl.plan_step, veh.step
    # a lane change follows the offset line until the first period i with
    # i * period >= abort_time, if any, and the track from there on
    track, offset = scenario.track.line(), scenario.lane_change_offset
    target = track if offset is None else track.parallel_offset(offset)
    swap = n_periods + 1
    abort = scenario.abort_time
    if abort is not None:
        swap = next((i for i in range(swap) if i * period >= abort), swap)
    substeps = range(scenario.control_divisor)
    samples: list[Sample] = []
    dtheta_dots: list[float] = []
    reason = None
    try:
        for i in range(n_periods + 1):
            if i == swap:
                target = track
            sample, dtheta_dot = plan_step(target, geom, state, params, i * period)
            samples.append(sample)
            dtheta_dots.append(dtheta_dot)
            if i == n_periods:
                break
            v, u = sample.v, sample.u_applied
            for _ in substeps:
                state = step(geom, state, v, u, h)
    except PlannerError as exc:
        reason = f"{type(exc).__name__}: {exc}"
    # the offset from the original track, which no sample holds; a run that
    # had not failed fails here if the last sample cannot be projected
    final_lateral = math.nan
    if samples:
        last = samples[-1]
        try:
            final_lateral = -track.project((last.x, last.y)).signed_lateral
        except PlannerError as exc:
            if reason is None:
                reason = f"{type(exc).__name__}: {exc}"
    metrics = metrics_from_samples(samples, dtheta_dots, final_lateral)
    return RunRecord(
        scenario=scenario,
        samples=tuple(samples),
        metrics=metrics,
        failure_reason=reason,
    )


def _steady_window_mean(values: list[float]) -> tuple[float, bool]:
    """Mean over the last 25% of samples, with a convergence certificate:
    the last-25% and last-10% means must agree within 1% of the larger
    magnitude, or within 1e-6 of the series' largest magnitude (and never
    less than 1e-9) where the means are near zero."""
    n = len(values)
    if n < 8:
        return math.nan, False
    w25 = values[-(n // 4):]
    w10 = values[-max(2, n // 10):]
    m25 = sum(w25) / len(w25)
    m10 = sum(w10) / len(w10)
    scale = max(abs(m25), abs(m10))
    floor = max(1e-6 * max(map(abs, values)), 1e-9)
    converged = abs(m25 - m10) <= max(_STEADY_AGREE_TOL * scale, floor)
    return m25, converged


def _count_sign_changes(rates: list[float]) -> int:
    threshold = _RATE_DEADBAND * max(map(abs, rates))
    signs = [1 if r > 0 else -1 for r in rates if abs(r) > threshold]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def metrics_from_samples(
    samples: list[Sample],
    dtheta_dots: list[float],
    final_lateral: float,
) -> RunMetrics:
    """Summary metrics of a run.

    dtheta_dots[i] is the orientation-difference rate of samples[i], as
    plan_step found it.  final_lateral is the last sample's offset from
    the scenario's track, which run projects, since no sample holds it.
    """
    if not samples:
        return RunMetrics(
            peak_abs_dtheta=math.nan,
            peak_abs_dtheta_dot=math.nan,
            final_lateral=math.nan,
            settle_time=math.nan,
            lateral_rate_sign_changes=0,
            mean_steady_curvature=math.nan,
            steady_lateral=math.nan,
            steady_converged=False,
            saturation_fraction=math.nan,
        )
    dthetas, laterals, rates, kappas = [], [], [], []
    saturated = 0
    for row in samples:
        # Sample's fields, in order
        (_, _, _, _, _, _, theta_v, theta_n, _, _, lateral, rate, u_s, u_c,
         u_applied, _, kappa_e) = row
        dthetas.append(wrap_angle(theta_v - theta_n))
        laterals.append(lateral)
        rates.append(rate)
        kappas.append(kappa_e)
        if abs((u_s + u_c) - u_applied) > 1e-12:
            saturated += 1

    steady_lat, conv_lat = _steady_window_mean(laterals)
    steady_kap, conv_kap = _steady_window_mean(kappas)

    steady_val = laterals[-1]
    threshold = max(0.01 * abs(laterals[0]), 1e-9)
    settle_idx = len(samples) - 1
    for i in range(len(samples) - 1, -1, -1):
        if abs(laterals[i] - steady_val) < threshold:
            settle_idx = i
        else:
            break
    settle_time = samples[settle_idx].t

    return RunMetrics(
        peak_abs_dtheta=max(map(abs, dthetas)),
        peak_abs_dtheta_dot=max(map(abs, dtheta_dots)),
        final_lateral=final_lateral,
        settle_time=settle_time,
        lateral_rate_sign_changes=_count_sign_changes(rates),
        mean_steady_curvature=steady_kap,
        steady_lateral=steady_lat,
        steady_converged=conv_lat and conv_kap,
        saturation_fraction=saturated / len(samples),
    )


# scenario-file key names (units encoded) -> constructor field names
_TRACK_KEYS = {
    "start_x_m": "start_x",
    "start_y_m": "start_y",
    "start_heading_rad": "start_heading",
    "segment": "pieces",
}
_PLANNER_KEYS = {
    "k_per_m": "k",
    "lambda_s2": "lam",
    "alpha": "alpha",
    "delta_d0_m": "delta_d0",
    "v_s_m_per_s": "v_s",
}
_VEHICLE_KEYS = {
    "l_f_m": "l_f",
    "l_r_m": "l_r",
    "delta_max_rad": "delta_max",
    "u_max_rad_per_s": "u_max",
}
_SIM_KEYS = {
    "duration_s": "duration",
    "h_s": "h",
    "control_divisor": "control_divisor",
    "abort_time_s": "abort_time",
    "lane_change_offset_m": "lane_change_offset",
    # the fields of Scenario.initial_state
    "initial_x_m": "x",
    "initial_y_m": "y",
    "initial_psi_rad": "psi",
    "initial_delta_rad": "delta",
}


_TABLES = {"track": _TRACK_KEYS, "planner": _PLANNER_KEYS,
           "vehicle": _VEHICLE_KEYS, "sim": _SIM_KEYS}

# each section's record: the Scenario field it fills and its class; [sim]
# fills the other fields
_RECORDS = {"track": ("track", Track), "vehicle": ("geometry", VehicleGeometry),
            "planner": ("params", PlannerParams)}


def field_values(section: str, values: dict[str, float]) -> dict:
    """Constructor keyword arguments for one section's scenario-file keys;
    [sim]'s initial-state keys give fields of Scenario.initial_state.

    Besides the renaming, an integral control divisor such as 2.0 becomes
    the int that Scenario requires, and a segment must be a tuple of
    pieces; every range is the constructors' to check.
    """
    table = _TABLES[section]
    kwargs = {}
    for key, value in values.items():
        if key not in table:
            raise KeyError(f"unknown {section} parameter {key!r}")
        name = table[key]
        if name == "control_divisor":
            if not float(value).is_integer():
                raise ValueError(f"control divisor {value!r} is not an integer")
            value = int(value)
        elif name == "pieces" and not isinstance(value, tuple):
            raise ValueError("a segment is text, not a number")
        kwargs[name] = value
    return kwargs


def apply_override(scenario: Scenario, key: str, value) -> Scenario:
    """New scenario with one dotted-key parameter replaced.

    Keys use the scenario-file vocabulary (units in the name), e.g.
    planner.k_per_m, sim.initial_y_m, track.start_x_m; track.segment takes
    a tuple of pieces.  Built with `_replace`, so an unchecked
    _ScenarioFields stays unchecked.
    """
    section, _, name = key.partition(".")
    if section not in _TABLES:
        raise KeyError(f"unknown override section {section!r}")
    kwargs = field_values(section, {name: value})
    if section == "sim" and _SIM_KEYS[name] not in VehicleState._fields:
        return scenario._replace(**kwargs)
    field = _RECORDS[section][0] if section in _RECORDS else "initial_state"
    return scenario._replace(**{field: getattr(scenario, field)._replace(**kwargs)})


def apply_overrides(scenario: Scenario, overrides: dict) -> Scenario:
    """New scenario with every dotted key of `overrides` replaced, checked
    once with all of them applied; a rejected set raises
    ScenarioValidationError, whose message names every key and value."""
    sc = _ScenarioFields._make(scenario)
    try:
        for key, value in overrides.items():
            sc = apply_override(sc, key, value)
        return Scenario._make(sc)
    except KeyError as exc:
        # the message itself: str() of a KeyError is its repr, in quotes
        raise ScenarioValidationError(exc.args[0]) from None
    except ValueError as exc:
        point = ", ".join(f"{k} = {v!r}" for k, v in overrides.items())
        raise ScenarioValidationError(f"{point}: {exc}") from None


def sweep(
    scenario: Scenario, axes: dict[str, list[float]]
) -> Iterator[tuple[dict, RunRecord]]:
    """Independent runs over the cartesian product of the axis values.

    Results are keyed and ordered by the grid coordinates.  Every grid
    point's scenario is built on the call by `apply_overrides`, so any
    rejected grid raises ScenarioValidationError before any simulation.
    The returned iterator runs each point as it is reached; a failed run is
    recorded in its RunRecord and the sweep continues.
    """
    if not axes:
        raise ScenarioValidationError("sweep needs at least one axis")
    for key, values in axes.items():
        if not values:
            raise ScenarioValidationError(f"axis {key!r} has no values")
        if len(set(values)) != len(values):
            raise ScenarioValidationError(f"axis {key!r} has duplicate values")
    keys = sorted(axes)
    grid = [dict(zip(keys, combo))
            for combo in itertools.product(*(axes[k] for k in keys))]
    points = [(overrides, apply_overrides(scenario, overrides)) for overrides in grid]
    return ((overrides, run(sc)) for overrides, sc in points)


def write_csv(path, samples) -> None:
    """Emit samples with full round-trip float precision.

    The bytes are those of csv.writer's default dialect: every field is a
    number, written with repr, which round-trips a float exactly and never
    needs quoting, and every row ends in CRLF.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(Sample._fields) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in samples)
