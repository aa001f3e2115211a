"""Piecewise line/arc reference lines and their geometric queries.

A reference line is an arc-length parameterized chain of straight segments
and circular arcs with G1 continuity at the junctions.  All queries
(frame lookup, closest-point projection, look-ahead) are closed-form per
primitive; there is no numerical iteration anywhere in this module.

Conventions:
  * the normal completes a right-handed frame with the tangent
    (normal = tangent rotated +90 degrees);
  * signed lateral deviation is <normal, shadow - vehicle>, so a vehicle
    left of the line (on the +normal side) has a negative value;
  * curvature is signed: positive turns left (counter-clockwise).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from math import tau
from typing import NamedTuple

from .errors import (
    ArcCenterSingularityError,
    ProjectionAmbiguityError,
    StationRangeError,
)
from .frozen import Frozen, _tuple_new

# two minimizers closer in distance than this, but at distinct feet,
# make the projection ambiguous
_AMBIGUITY_TOL = 1e-6

# arc positions c + R cos(phi) carry about R * 2e-16 m of rounding, which
# swamps a small lateral: at curvature 1e-8 the lateral of (1, 0) reads
# -4.6e-19 m instead of about 5e-9 m
_MAX_ARC_RADIUS = 1e6


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.remainder(a, tau)
    if a <= -math.pi:
        a += tau
    return a


class FramePoint(NamedTuple):
    """Curve frame at one station: position, unit normal, heading, curvature.
    The unit tangent is the normal (nx, ny) rotated back, (ny, -nx)."""

    position: tuple[float, float]
    normal: tuple[float, float]
    orientation: float
    curvature: float
    station: float


class ShadowResult(NamedTuple):
    """Closest-point projection of a vehicle position onto the line."""

    frame: FramePoint
    signed_lateral: float


class StraightSegment(Frozen):
    """A straight piece: start point, heading and length."""

    __match_args__ = ("x0", "y0", "heading", "length")
    # the fields, then the unit tangent and normal and the wrapped heading,
    # computed once
    __slots__ = (*__match_args__, "tangent", "normal", "orientation")

    def __init__(self, x0: float, y0: float, heading: float, length: float):
        c, sn = math.cos(heading), math.sin(heading)
        self._fill(x0, y0, heading, length, (c, sn), (-sn, c), wrap_angle(heading))

    def end_pose(self):
        c, sn = self.tangent
        return self.x0 + self.length * c, self.y0 + self.length * sn, self.heading

    def frame_at(self, s: float, station: float) -> FramePoint:
        c, sn = self.tangent
        return _tuple_new(FramePoint, (
            (self.x0 + s * c, self.y0 + s * sn), self.normal, self.orientation,
            0.0, station,
        ))

    def closest(self, px: float, py: float):
        """[(local station, distance, foot x, foot y, clamp)]: clamp is -1 or
        +1 where the perpendicular foot fell before the start or past the
        end and was clamped to that endpoint, 0 for a true foot."""
        c, sn = self.tangent
        t = (px - self.x0) * c + (py - self.y0) * sn
        clamp = 0
        if t < 0.0:
            t, clamp = 0.0, -1
        elif t > self.length:
            t, clamp = self.length, 1
        fx, fy = self.x0 + t * c, self.y0 + t * sn
        return [(t, math.hypot(px - fx, py - fy), fx, fy, clamp)]

    def offset(self, d: float) -> "StraightSegment":
        c, sn = self.tangent
        return StraightSegment(self.x0 - d * sn, self.y0 + d * c, self.heading, self.length)


class ArcSegment(Frozen):
    """A circular-arc piece: center, radius, the angle of its start point
    seen from the center, and the signed sweep."""

    __match_args__ = ("cx", "cy", "radius", "start_angle", "sweep")
    # the fields, then turn, curvature and length, derived once
    __slots__ = (*__match_args__, "turn", "curvature", "length")

    def __init__(self, cx: float, cy: float, radius: float,
                 start_angle: float,  # of the start point, seen from the center
                 sweep: float):  # signed, radians; positive = counter-clockwise
        turn = 1.0 if sweep >= 0 else -1.0
        self._fill(cx, cy, radius, start_angle, sweep, turn, turn / radius,
                   radius * abs(sweep))

    def end_pose(self):
        f = self.frame_at(self.length, 0.0)
        return f.position[0], f.position[1], f.orientation

    def frame_at(self, s: float, station: float) -> FramePoint:
        turn, radius = self.turn, self.radius
        phi = self.start_angle + turn * s / radius
        theta = wrap_angle(phi + turn * math.pi / 2.0)
        ct, st = math.cos(theta), math.sin(theta)
        return _tuple_new(FramePoint, (
            (self.cx + radius * math.cos(phi), self.cy + radius * math.sin(phi)),
            (-st, ct), theta, self.curvature, station,
        ))

    def closest(self, px: float, py: float):
        """As StraightSegment.closest; a radial foot outside the sweep gives
        both endpoints, clamped."""
        dx, dy = px - self.cx, py - self.cy
        d = math.hypot(dx, dy)
        if d < 1e-9:
            raise ArcCenterSingularityError(
                "projection query exactly at an arc center"
            )
        phi = math.atan2(dy, dx)
        a = (self.turn * (phi - self.start_angle)) % tau
        if a <= abs(self.sweep):
            s = a * self.radius
            fx = self.cx + self.radius * dx / d
            fy = self.cy + self.radius * dy / d
            return [(s, abs(d - self.radius), fx, fy, 0)]
        out = []
        for s, clamp in ((0.0, -1), (self.length, 1)):
            fx, fy = self.frame_at(s, 0.0).position
            out.append((s, math.hypot(px - fx, py - fy), fx, fy, clamp))
        return out

    def offset(self, d: float) -> "ArcSegment":
        new_radius = self.radius - self.turn * d
        if new_radius <= 1e-9:
            raise ValueError("parallel offset collapses an arc segment")
        return ArcSegment(self.cx, self.cy, new_radius, self.start_angle, self.sweep)


class ReferenceLine:
    """Arc-length parameterized chain of straight and circular-arc segments,
    built by from_pieces or parallel_offset."""

    @classmethod
    def _chain(cls, segments: list[StraightSegment | ArcSegment]) -> "ReferenceLine":
        self = object.__new__(cls)
        self.segments = segments
        self._starts = [0.0]
        for seg in segments:
            self._starts.append(self._starts[-1] + seg.length)
        self.total_length = self._starts[-1]
        return self

    @classmethod
    def from_pieces(
        cls,
        start_x: float,
        start_y: float,
        start_heading: float,
        pieces: list[tuple],
    ) -> "ReferenceLine":
        """Build a chain from ("line", length) / ("arc", length, curvature) pieces."""
        x, y, h = start_x, start_y, start_heading
        if not all(map(math.isfinite, (x, y, h))):
            raise ValueError("start pose must be finite")
        if not pieces:
            raise ValueError("reference line needs at least one piece")
        segments: list[StraightSegment | ArcSegment] = []
        for piece in pieces:
            kind = piece[0]
            if kind == "line":
                (_, length) = piece
                if not 0 < length < math.inf:
                    raise ValueError("segment length must be positive and finite")
                seg = StraightSegment(x, y, h, length)
            elif kind == "arc":
                (_, length, kappa) = piece
                if not 0 < length < math.inf:
                    raise ValueError("segment length must be positive and finite")
                if not (kappa != 0 and math.isfinite(kappa)):
                    raise ValueError("arc curvature must be nonzero and finite")
                turn = 1.0 if kappa > 0 else -1.0
                radius = 1.0 / abs(kappa)
                if radius > _MAX_ARC_RADIUS:
                    raise ValueError("arc radius 1/|curvature| must be finite, "
                                     f"at most {_MAX_ARC_RADIUS:,.0f} m")
                nx, ny = -math.sin(h), math.cos(h)
                cx, cy = x + turn * radius * nx, y + turn * radius * ny
                start_angle = math.atan2(y - cy, x - cx)
                seg = ArcSegment(cx, cy, radius, start_angle, kappa * length)
            else:
                raise ValueError(f"unknown segment kind {kind!r}")
            segments.append(seg)
            x, y, h = seg.end_pose()
        return cls._chain(segments)

    def point_at(self, s: float) -> FramePoint:
        total = self.total_length
        if not (-1e-12 <= s <= total + 1e-12):
            raise StationRangeError(f"station {s} outside [0, {total}]")
        # clamps as comparisons, as in vehicle.step
        if s > total:
            s = total
        elif s < 0.0:
            s = 0.0
        # the owning segment, left-closed: a junction belongs to the segment
        # that starts there, and the line end to the last one
        starts, segments = self._starts, self.segments
        i = bisect_right(starts, s) - 1
        if i == len(segments):
            i -= 1
        return segments[i].frame_at(s - starts[i], s)

    def lookahead(self, shadow_station: float, delta_d0: float) -> FramePoint:
        if delta_d0 < 0:
            raise ValueError("look-ahead distance must be nonnegative")
        return self.point_at(shadow_station + delta_d0)

    def project(self, position: tuple[float, float]) -> ShadowResult:
        px, py = position
        # a clamped segment end is no perpendicular foot, and at a junction
        # the neighbour's candidate is at least as close; so the junction is
        # a candidate only where both sides are clamped to it (the position
        # lies between the two end normals), and a clamped end only at either
        # end of the whole line, where it marks the position as outside
        candidates = []  # (distance, global_station, fx, fy, outside)
        prev_clamped = True  # the line start counts as a clamped neighbour
        for seg, s0 in zip(self.segments, self._starts):
            end = None
            for local, dist, fx, fy, clamp in seg.closest(px, py):
                if clamp > 0:
                    end = (dist, s0 + local, fx, fy, True)
                elif clamp == 0:
                    candidates.append((dist, s0 + local, fx, fy, False))
                elif prev_clamped:
                    # the line start (s0 == 0), or a junction
                    candidates.append((dist, s0 + local, fx, fy, s0 == 0.0))
            prev_clamped = end is not None
        if end is not None:
            candidates.append(end)
        if len(candidates) == 1:
            _, bs, _, _, outside = candidates[0]
        else:
            bd, bs, bx, by, outside = min(candidates)
            for dist, s, fx, fy, _ in candidates:
                if s == bs:
                    continue
                if dist - bd < _AMBIGUITY_TOL and math.hypot(fx - bx, fy - by) > _AMBIGUITY_TOL:
                    raise ProjectionAmbiguityError(
                        f"two closest points at stations {bs:.6f} and {s:.6f}"
                    )
        if outside:
            raise StationRangeError(
                "closest point clamped to the line end; vehicle outside the "
                "projection domain"
            )
        # the frame at the global station, not the candidate's foot: at a
        # junction the station decides which segment owns the point
        frame = self.point_at(bs)
        (fx, fy), (nx, ny), _, _, _ = frame
        return _tuple_new(ShadowResult, (frame, (fx - px) * nx + (fy - py) * ny))

    def parallel_offset(self, d: float) -> "ReferenceLine":
        """Parallel track at offset d along the +normal direction."""
        return self._chain([seg.offset(d) for seg in self.segments])
