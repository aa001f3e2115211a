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
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import (
    ArcCenterSingularityError,
    ProjectionAmbiguityError,
    StationRangeError,
)

TAU = math.tau

# junction continuity tolerances (position / orientation)
_G1_POS_TOL = 1e-9
_G1_ANG_TOL = 1e-9

# two minimizers closer in distance than this, but at distinct feet,
# make the projection ambiguous
_AMBIGUITY_TOL = 1e-6

# arc positions c + R cos(phi) carry about R * 2e-16 m of rounding, which
# swamps a small lateral: at curvature 1e-8 the lateral of (1, 0) reads
# -4.6e-19 m instead of about 5e-9 m
_MAX_ARC_RADIUS = 1e6

# builds a record without the NamedTuple constructor's Python-level __new__
_tuple_new = tuple.__new__


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.remainder(a, TAU)
    if a <= -math.pi:
        a += TAU
    return a


class FramePoint(NamedTuple):
    """Curve frame at one station: position, unit tangent/normal, heading, curvature."""

    position: tuple[float, float]
    tangent: tuple[float, float]
    normal: tuple[float, float]
    orientation: float
    curvature: float
    station: float


class ShadowResult(NamedTuple):
    """Closest-point projection of a vehicle position onto the line."""

    frame: FramePoint
    signed_lateral: float


@dataclass(frozen=True)
class StraightSegment:
    x0: float
    y0: float
    heading: float
    length: float
    # the unit tangent and normal and the wrapped heading, computed once;
    # init=False so that dataclasses.replace recomputes them
    tangent: tuple[float, float] = field(init=False, repr=False, compare=False)
    normal: tuple[float, float] = field(init=False, repr=False, compare=False)
    orientation: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c, sn = math.cos(self.heading), math.sin(self.heading)
        object.__setattr__(self, "tangent", (c, sn))
        object.__setattr__(self, "normal", (-sn, c))
        object.__setattr__(self, "orientation", wrap_angle(self.heading))

    def start_pose(self):
        return self.x0, self.y0, self.heading

    def end_pose(self):
        c, sn = self.tangent
        return self.x0 + self.length * c, self.y0 + self.length * sn, self.heading

    def frame_at(self, s: float, station: float) -> FramePoint:
        c, sn = self.tangent
        return _tuple_new(FramePoint, (
            (self.x0 + s * c, self.y0 + s * sn), self.tangent, self.normal,
            self.orientation, 0.0, station,
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


@dataclass(frozen=True)
class ArcSegment:
    cx: float
    cy: float
    radius: float
    start_angle: float  # angle of the start point as seen from the center
    sweep: float  # signed, radians; positive = counter-clockwise
    # derived once; init=False so that dataclasses.replace recomputes them
    turn: float = field(init=False, repr=False, compare=False)
    curvature: float = field(init=False, repr=False, compare=False)
    length: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        turn = 1.0 if self.sweep >= 0 else -1.0
        object.__setattr__(self, "turn", turn)
        object.__setattr__(self, "curvature", turn / self.radius)
        object.__setattr__(self, "length", self.radius * abs(self.sweep))

    def start_pose(self):
        f = self.frame_at(0.0, 0.0)
        return f.position[0], f.position[1], f.orientation

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
            (ct, st), (-st, ct), theta, self.curvature, station,
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
        a = (self.turn * (phi - self.start_angle)) % TAU
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


Segment = StraightSegment | ArcSegment


class ReferenceLine:
    """Arc-length parameterized chain of straight and circular-arc segments."""

    def __init__(self, segments: list[Segment]):
        if not segments:
            raise ValueError("reference line needs at least one segment")
        for prev, nxt in zip(segments, segments[1:]):
            ex, ey, eh = prev.end_pose()
            sx, sy, sh = nxt.start_pose()
            if math.hypot(ex - sx, ey - sy) > _G1_POS_TOL:
                raise ValueError("segments are not position-continuous")
            if abs(wrap_angle(eh - sh)) > _G1_ANG_TOL:
                raise ValueError("segments are not orientation-continuous")
        self.segments = list(segments)
        self._starts = [0.0]
        for seg in self.segments:
            self._starts.append(self._starts[-1] + seg.length)
        self.total_length = self._starts[-1]

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
        segments: list[Segment] = []
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
        return cls(segments)

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
        s = shadow_station + delta_d0
        if s > self.total_length + 1e-12:
            raise StationRangeError(
                f"look-ahead station {s} beyond line end {self.total_length}"
            )
        return self.point_at(s)

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
        (fx, fy), _, (nx, ny), _, _, _ = frame
        return _tuple_new(ShadowResult, (frame, (fx - px) * nx + (fy - py) * ny))

    def parallel_offset(self, d: float) -> "ReferenceLine":
        """Parallel track at offset d along the +normal direction."""
        return ReferenceLine([seg.offset(d) for seg in self.segments])
