import copy
import math

import pytest
from hypothesis import given, strategies as st

from lanesteer.errors import (
    ProjectionAmbiguityError,
    StationRangeError,
)
from lanesteer.refline import ArcSegment, ReferenceLine, StraightSegment, wrap_angle


def make_mixed_track():
    # straight, quarter-turn left, straight, quarter-turn right
    return ReferenceLine.from_pieces(
        0.0, 0.0, 0.0,
        [
            ("line", 50.0),
            ("arc", 0.5 * math.pi * 20.0, 1.0 / 20.0),
            ("line", 30.0),
            ("arc", 0.5 * math.pi * 40.0, -1.0 / 40.0),
        ],
    )


def brute_force_foot(line, pos, step=1e-2, fine_step=1e-6):
    """Nearest point by scanning point_at: a coarse pass over the whole line,
    then a fine pass around the coarse minimum."""

    def dist(s):
        x, y = line.point_at(s).position
        return math.hypot(x - pos[0], y - pos[1])

    n = int(line.total_length / step)
    s0 = min((i * step for i in range(n + 1)), key=dist)
    lo, hi = max(s0 - step, 0.0), min(s0 + step, line.total_length)
    m = int((hi - lo) / fine_step)
    return min((lo + i * fine_step for i in range(m + 1)), key=dist)


class TestWrapAngle:
    def test_interval_is_half_open(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)

    @given(st.floats(-1e6, 1e6))
    def test_range_and_equivalence(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        # same point on the circle
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)

    @given(st.floats(-math.pi + 1e-9, math.pi))
    def test_identity_inside(self, a):
        assert wrap_angle(a) == pytest.approx(a, abs=1e-12)


class TestConstruction:
    def test_half_circle_endpoint(self):
        # radius 100 turning left: after half the circumference (100*pi)
        # the line reaches (0, 200) heading backwards
        line = ReferenceLine.from_pieces(
            0.0, 0.0, 0.0, [("arc", 100.0 * math.pi, 0.01)]
        )
        f = line.point_at(line.total_length)
        assert f.position[0] == pytest.approx(0.0, abs=1e-9)
        assert f.position[1] == pytest.approx(200.0, abs=1e-9)
        assert abs(wrap_angle(f.orientation - math.pi)) < 1e-9

    def test_total_length_is_sum(self):
        line = make_mixed_track()
        expected = 50.0 + 0.5 * math.pi * 20.0 + 30.0 + 0.5 * math.pi * 40.0
        assert line.total_length == pytest.approx(expected)

    def test_segment_list_is_no_constructor(self):
        # a line is built from pieces, each starting where the last one ends
        with pytest.raises(TypeError):
            ReferenceLine([StraightSegment(0.0, 0.0, 0.0, 10.0)])

    def test_no_pieces_rejected(self):
        with pytest.raises(ValueError, match="at least one piece"):
            ReferenceLine.from_pieces(0, 0, 0, [])

    def test_chain_far_from_the_origin_builds(self):
        # a junction re-check once rejected this chain on rounding alone
        line = ReferenceLine.from_pieces(
            1e12, 1e12, 0.3, [("line", 10.0), ("arc", 20.0, 0.01), ("line", 10.0)]
        )
        assert line.total_length == pytest.approx(40.0)

    def test_bad_piece_kind(self):
        with pytest.raises(ValueError, match="unknown segment kind"):
            ReferenceLine.from_pieces(0, 0, 0, [("spline", 1.0)])

    def test_zero_curvature_arc_rejected(self):
        with pytest.raises(ValueError, match="curvature"):
            ReferenceLine.from_pieces(0, 0, 0, [("arc", 1.0, 0.0)])


class TestFrames:
    def test_normal_is_left_of_tangent(self):
        line = make_mixed_track()
        for s in (0.0, 10.0, 60.0, 95.0, 120.0):
            f = line.point_at(s)
            # the tangent of the frame's heading, rotated +90 degrees
            tx, ty = math.cos(f.orientation), math.sin(f.orientation)
            assert f.normal == pytest.approx((-ty, tx))
            assert math.hypot(*f.normal) == pytest.approx(1.0)

    def test_ccw_arc_normal_points_to_center(self):
        # left turn of radius 20 starting at station 50, center known
        line = make_mixed_track()
        f = line.point_at(60.0)
        cx, cy = 50.0, 20.0
        to_center = (cx - f.position[0], cy - f.position[1])
        dot = to_center[0] * f.normal[0] + to_center[1] * f.normal[1]
        assert dot == pytest.approx(20.0)

    def test_curvature_signs(self):
        line = make_mixed_track()
        assert line.point_at(10.0).curvature == 0.0
        assert line.point_at(60.0).curvature == pytest.approx(0.05)
        assert line.point_at(130.0).curvature == pytest.approx(-0.025)

    def test_junction_belongs_to_next_segment(self):
        line = make_mixed_track()
        assert line.point_at(50.0).curvature == pytest.approx(0.05)

    def test_station_out_of_range(self):
        line = make_mixed_track()
        with pytest.raises(StationRangeError):
            line.point_at(-1.0)
        with pytest.raises(StationRangeError):
            line.point_at(line.total_length + 1.0)

    def test_station_within_1e_12_is_clamped(self):
        line = ReferenceLine.from_pieces(0.0, 0.0, 0.0, [("line", 60.0)])
        end = line.point_at(60.0 + 5e-13)
        assert end == line.point_at(60.0)
        assert end.station == 60.0
        assert line.point_at(-5e-13).station == 0.0

    def test_station_past_1e_12_raises(self):
        # point_at's bound is the look-ahead's as well
        line = ReferenceLine.from_pieces(0.0, 0.0, 0.0, [("line", 60.0)])
        for s in (60.0 + 1e-9, -1e-9):
            with pytest.raises(StationRangeError):
                line.point_at(s)
        with pytest.raises(StationRangeError):
            line.lookahead(59.0, 1.0 + 1e-9)


class TestLookahead:
    def test_advances_station(self):
        line = make_mixed_track()
        f = line.lookahead(10.0, 5.0)
        assert f.station == pytest.approx(15.0)

    def test_beyond_end_raises(self):
        line = make_mixed_track()
        with pytest.raises(StationRangeError):
            line.lookahead(line.total_length - 1.0, 2.0)

    def test_negative_rejected(self):
        line = make_mixed_track()
        with pytest.raises(ValueError):
            line.lookahead(0.0, -1.0)


class TestProjection:
    def test_sign_convention_straight(self):
        line = ReferenceLine.from_pieces(0.0, 0.0, 0.0, [("line", 100.0)])
        # vehicle left of the line (positive y): shadow - vehicle points
        # along -normal, so the signed lateral is negative
        res = line.project((10.0, 2.0))
        assert res.signed_lateral == pytest.approx(-2.0)
        assert res.frame.station == pytest.approx(10.0)
        res = line.project((10.0, -2.0))
        assert res.signed_lateral == pytest.approx(2.0)

    def test_on_line_zero_lateral(self):
        line = make_mixed_track()
        for s in (5.0, 55.0, 90.0, 140.0):
            f = line.point_at(s)
            res = line.project(f.position)
            assert abs(res.signed_lateral) < 1e-9
            assert res.frame.station == pytest.approx(s, abs=1e-9)

    def test_arc_projection_is_radial(self):
        line = ReferenceLine.from_pieces(
            0.0, 0.0, 0.0, [("arc", 0.5 * math.pi * 20.0, 0.05)]
        )
        # inside the left-turn circle (center (0, 20)) the vehicle sits on
        # the left of the line, so the signed lateral is negative
        res = line.project((0.0 + 14.0 * math.sin(0.3), 20.0 - 14.0 * math.cos(0.3)))
        assert res.signed_lateral == pytest.approx(-6.0)

    def test_shadow_ray_orthogonal(self):
        line = make_mixed_track()
        for pos in ((20.0, 1.5), (55.0, 15.0), (60.0, 35.0), (100.0, 52.0)):
            res = line.project(pos)
            r = (res.frame.position[0] - pos[0], res.frame.position[1] - pos[1])
            nx, ny = res.frame.normal
            t = (ny, -nx)
            assert abs(r[0] * t[0] + r[1] * t[1]) < 1e-7

    def test_equidistant_point_ambiguous(self):
        # U-shaped line: points on the symmetry axis between the legs
        line = ReferenceLine.from_pieces(
            0.0, 0.0, 0.0,
            [("line", 10.0), ("arc", math.pi * 5.0, 0.2), ("line", 10.0)],
        )
        with pytest.raises(ProjectionAmbiguityError):
            line.project((5.0, 5.0))

    @pytest.mark.parametrize("station", [49.999, 50.001, 109.999, 110.001])
    def test_concave_side_of_junction_projects_onto_foot(self, station):
        # 0.7 m toward the arc's center and 1 mm from a line/arc junction,
        # the end of the neighbouring segment is nearly as close as the foot
        line = ReferenceLine.from_pieces(
            0.0, 0.0, 0.0, [("line", 50.0), ("arc", 60.0, 0.02), ("line", 100.0)]
        )
        f = line.point_at(station)
        pos = (f.position[0] + 0.7 * f.normal[0], f.position[1] + 0.7 * f.normal[1])
        res = line.project(pos)
        assert res.frame.station == pytest.approx(brute_force_foot(line, pos), abs=1e-5)
        assert res.signed_lateral == pytest.approx(-0.7, abs=1e-6)

    def test_flattest_arc_keeps_its_lateral(self):
        # radius 1e6 m, the largest a track takes: (1, 0) lies
        # kappa s^2 / 2 = 5e-7 m to the right of the arc
        line = ReferenceLine.from_pieces(0.0, 0.0, 0.0, [("arc", 200.0, 1e-6)])
        assert line.project((1.0, 0.0)).signed_lateral == pytest.approx(5e-7, abs=1e-9)

    def test_beyond_end_rejected(self):
        line = ReferenceLine.from_pieces(0.0, 0.0, 0.0, [("line", 10.0)])
        with pytest.raises(StationRangeError):
            line.project((15.0, 1.0))

    def test_before_start_rejected(self):
        line = ReferenceLine.from_pieces(0.0, 0.0, 0.0, [("line", 10.0)])
        with pytest.raises(StationRangeError):
            line.project((-5.0, 1.0))


class TestParallelOffset:
    def test_straight_shifts_left(self):
        line = ReferenceLine.from_pieces(0.0, 0.0, 0.0, [("line", 10.0)])
        off = line.parallel_offset(3.5)
        f = off.point_at(0.0)
        assert f.position == pytest.approx((0.0, 3.5))
        assert f.orientation == pytest.approx(0.0)

    def test_arc_radius_shrinks_toward_center(self):
        line = ReferenceLine.from_pieces(
            0.0, 0.0, 0.0, [("arc", 0.5 * math.pi * 20.0, 0.05)]
        )
        off = line.parallel_offset(2.0)
        assert off.segments[0].radius == pytest.approx(18.0)
        assert off.total_length == pytest.approx(0.5 * math.pi * 18.0)
        assert off.point_at(1.0).curvature == 1.0 / off.segments[0].radius

    def test_offset_points_at_constant_distance(self):
        line = make_mixed_track()
        off = line.parallel_offset(1.5)
        for frac in (0.1, 0.4, 0.7, 0.95):
            p = off.point_at(frac * off.total_length).position
            # the offset lies on the +normal side: a negative signed lateral
            assert line.project(p).signed_lateral == pytest.approx(-1.5, abs=1e-9)

    def test_collapsing_offset_rejected(self):
        line = ReferenceLine.from_pieces(
            0.0, 0.0, 0.0, [("arc", 1.0, 0.5)]
        )
        with pytest.raises(ValueError, match="collapses"):
            line.parallel_offset(2.0)


class TestSegmentCaches:
    """The values a segment derives from its fields are computed once, at
    construction, and are no part of its identity."""

    def test_replace_rebuilds_straight_frame(self):
        seg = StraightSegment(1.0, 2.0, 4.0, 10.0)
        c, sn = math.cos(4.0), math.sin(4.0)
        assert (seg.tangent, seg.normal) == ((c, sn), (-sn, c))
        assert seg.orientation == wrap_angle(4.0) < 0
        assert seg.frame_at(2.0, 0.0).position == (1.0 + 2.0 * c, 2.0 + 2.0 * sn)

    def test_replace_rebuilds_arc_values(self):
        seg = ArcSegment(0.0, 0.0, 40.0, 0.0, -0.25)
        assert (seg.turn, seg.curvature, seg.length) == (-1.0, -1.0 / 40.0, 10.0)
        assert seg.frame_at(5.0, 0.0).curvature == -1.0 / 40.0

    @pytest.mark.parametrize("seg, cached", [
        (StraightSegment(1.0, 2.0, 0.3, 10.0), ("tangent", "normal", "orientation")),
        (ArcSegment(0.0, 0.0, 20.0, 0.0, 0.5), ("turn", "curvature", "length")),
    ])
    def test_equality_hash_and_repr_ignore_cached_values(self, seg, cached):
        tampered = copy.copy(seg)
        for name in cached:
            object.__setattr__(tampered, name, None)
        assert tampered == seg and hash(tampered) == hash(seg)
        assert repr(tampered) == repr(seg)
