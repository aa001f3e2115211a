"""Reference control period: the projection, look-ahead and control law as
they read before the control period was trimmed.

Kept deliberately independent of the package's query code, so that a
differential test can require the package's `ReferenceLine.project` and
`control.plan_step` to return the same values bit for bit, or to raise the
same error class.  Only the records, the errors and each segment's
`closest` (which the trim did not touch) come from the package.
"""

import bisect
import math

from lanesteer.control import Sample
from lanesteer.errors import (
    GeometryDegenerateError,
    ProjectionAmbiguityError,
    ShadowRegularityError,
    StationRangeError,
    SteeringDomainError,
)
from lanesteer.refline import FramePoint, ShadowResult, StraightSegment

_AMBIGUITY_TOL = 1e-6
_ORTHO_TOL = 1e-8
EPS_ALIGN = 0.1


def wrap_angle(a):
    a = math.remainder(a, math.tau)
    if a <= -math.pi:
        a += math.tau
    return a


def frame_at(seg, s, station):
    if isinstance(seg, StraightSegment):
        c, sn = seg.tangent
        return FramePoint(
            position=(seg.x0 + s * c, seg.y0 + s * sn),
            normal=seg.normal,
            orientation=seg.orientation,
            curvature=0.0,
            station=station,
        )
    phi = seg.start_angle + seg.turn * s / seg.radius
    cp, sp = math.cos(phi), math.sin(phi)
    theta = wrap_angle(phi + seg.turn * math.pi / 2.0)
    ct, st = math.cos(theta), math.sin(theta)
    return FramePoint(
        position=(seg.cx + seg.radius * cp, seg.cy + seg.radius * sp),
        normal=(-st, ct),
        orientation=theta,
        curvature=seg.curvature,
        station=station,
    )


def point_at(line, s):
    if not (-1e-12 <= s <= line.total_length + 1e-12):
        raise StationRangeError(f"station {s} outside [0, {line.total_length}]")
    s = min(max(s, 0.0), line.total_length)
    starts = [0.0]
    for seg in line.segments:
        starts.append(starts[-1] + seg.length)
    i = bisect.bisect_right(starts, s) - 1
    i = min(i, len(line.segments) - 1)
    return frame_at(line.segments[i], s - starts[i], s)


def lookahead(line, shadow_station, delta_d0):
    if delta_d0 < 0:
        raise ValueError("look-ahead distance must be nonnegative")
    s = shadow_station + delta_d0
    if s > line.total_length + 1e-12:
        raise StationRangeError(
            f"look-ahead station {s} beyond line end {line.total_length}"
        )
    return point_at(line, s)


def project(line, position):
    px, py = position
    starts = [0.0]
    for seg in line.segments:
        starts.append(starts[-1] + seg.length)
    candidates = []
    prev_clamped = True
    for seg, s0 in zip(line.segments, starts):
        end = None
        for local, dist, fx, fy, clamp in seg.closest(px, py):
            if clamp > 0:
                end = (dist, s0 + local, fx, fy)
            elif clamp == 0 or prev_clamped:
                candidates.append((dist, s0 + local, fx, fy))
        prev_clamped = end is not None
    if end is not None:
        candidates.append(end)
    best = min(candidates)
    bd, bs, bx, by = best
    for dist, s, fx, fy in candidates:
        if s == bs:
            continue
        if dist - bd < _AMBIGUITY_TOL and math.hypot(fx - bx, fy - by) > _AMBIGUITY_TOL:
            raise ProjectionAmbiguityError(
                f"two closest points at stations {bs:.6f} and {s:.6f}"
            )
    frame = point_at(line, bs)
    rx, ry = frame.position[0] - px, frame.position[1] - py
    # the tangent is the normal (nx, ny) rotated back, (ny, -nx)
    tangential = rx * frame.normal[1] - ry * frame.normal[0]
    if abs(tangential) > _ORTHO_TOL * max(1.0, bd):
        raise StationRangeError(
            "closest point clamped to the line end; vehicle outside the "
            "projection domain"
        )
    lateral = rx * frame.normal[0] + ry * frame.normal[1]
    return ShadowResult(frame=frame, signed_lateral=lateral)


def _check_delta(delta):
    if not abs(delta) < math.pi / 2:
        raise SteeringDomainError(f"front-wheel angle {delta} outside (-pi/2, pi/2)")


def slip_angle(geom, delta):
    _check_delta(delta)
    return math.atan(geom.l_r * math.tan(delta) / (geom.l_f + geom.l_r))


def steering_gain(geom, delta):
    _check_delta(delta)
    ratio = geom.l_r / (geom.l_f + geom.l_r)
    t = geom.l_r * math.tan(delta) / (geom.l_f + geom.l_r)
    return ratio / ((1.0 + t * t) * math.cos(delta) ** 2)


def error_two_point(theta_v, theta_n, theta_f, lateral, k, alpha):
    blend = theta_n + alpha * wrap_angle(theta_f - theta_n)
    return wrap_angle(theta_v - blend) - k * lateral


def vehicle_speed(v_s, lateral_term, alignment):
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


def plan_step(line, geom, state, params, t):
    beta = slip_angle(geom, state.delta)
    g = steering_gain(geom, state.delta)
    theta_v = wrap_angle(state.psi + beta)
    shadow = project(line, (state.x, state.y))
    near = shadow.frame
    far = lookahead(line, near.station, params.delta_d0)

    delta_theta = wrap_angle(theta_v - near.orientation)
    alignment = math.cos(delta_theta)
    v = vehicle_speed(params.v_s, shadow.signed_lateral * near.curvature, alignment)

    e = error_two_point(
        theta_v,
        near.orientation,
        far.orientation,
        shadow.signed_lateral,
        params.k,
        params.alpha,
    )
    theta_dot_ref = (
        (1.0 - params.alpha) * params.v_s * near.curvature
        + params.alpha * params.v_s * far.curvature
    )
    yaw_rate = (v / geom.l_r) * math.sin(beta)
    u_s = (-yaw_rate + theta_dot_ref - params.k * v * math.sin(delta_theta)) / g
    u_c = -e / (g * math.sqrt(params.lam))
    u_applied = min(max(u_s + u_c, -geom.u_max), geom.u_max)
    kappa_e = (yaw_rate + g * u_applied) / v
    sample = Sample(
        t=t,
        x=state.x,
        y=state.y,
        psi=state.psi,
        delta=state.delta,
        beta=beta,
        theta_v=theta_v,
        theta_n=near.orientation,
        theta_f=far.orientation,
        e=e,
        d_lateral=shadow.signed_lateral,
        d_lateral_rate=-v * math.sin(delta_theta),
        u_s=u_s,
        u_c=u_c,
        u_applied=u_applied,
        v=v,
        kappa_e_inst=kappa_e,
    )
    # the shadow point advances at v_s, so theta_n changes at v_s * kappa_n
    return sample, kappa_e * v - params.v_s * near.curvature
