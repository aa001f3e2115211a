import math
import re
import sys

import pytest

from lanesteer import svgplot


@pytest.mark.parametrize("ys", [
    # a span of a few ulps at 1e6: a tick step below an ulp never advanced
    (1e6, 1e6 + 1e-9),
    # equal values where adding 1.0 leaves them equal: a zero span
    (5.8e117, 5.8e117),
], ids=["few_ulps", "flat_beyond_one"])
def test_span_below_a_few_ulps_is_drawn_flat(ys):
    svg = svgplot.line_chart([("a", [(0.0, ys[0]), (1.0, ys[1])])], "t", "x", "y")
    assert not re.search(r"\b(nan|inf)\b", svg)
    # three parts per y tick, one of them the grid line
    assert 2 <= svg.count('stroke="#dddddd"') <= 12


def test_ticks_bounded_by_index():
    # 1-2-5 steps put at most ten ticks on a span
    for lo, hi in [(0.0, 1.0), (-3.2, 7.9), (1e-12, 3e-12), (1e6, 1e6 + 3e-10)]:
        ticks = svgplot._ticks(lo, hi)
        assert 1 <= len(ticks) <= svgplot._MAX_TICKS
        assert all(map(math.isfinite, ticks))


def _tick_positions(svg):
    """(x positions of the x ticks, y positions of the y ticks)."""
    bottom = svgplot.HEIGHT - svgplot.MARGIN_B
    xs = re.findall(rf'<line x1="([^"]+)" y1="{bottom}" x2="\1" y2="{bottom + 5}"', svg)
    left = svgplot.MARGIN_L
    ys = re.findall(rf'<line x1="{left - 5}" y1="([^"]+)" x2="{left}" y2="\1"', svg)
    return [float(x) for x in xs], [float(y) for y in ys]


@pytest.mark.parametrize("lo, hi", [
    # below magnitude 1 a tolerance of 1e-9 is many steps wide
    (1.0e-8, 1.2e-8),
    (-3e-13, 2e-13),
    (0.0, 1.0),
    (-3.2, 7.9),
    (1e6, 1e6 + 3e-4),
    # the span overflows a float
    (-1e308, 1e308),
    (-sys.float_info.max, sys.float_info.max),
], ids=["1e-8", "1e-13", "unit", "signed", "1e6", "1e308", "float_max"])
def test_every_tick_inside_the_box(lo, hi):
    points = [(lo, lo), (0.5 * lo + 0.5 * hi, 0.5 * lo + 0.5 * hi), (hi, hi)]
    _assert_inside_the_box(svgplot.line_chart([("a", points)], "t", "x", "y"))


@pytest.mark.parametrize("x", [sys.float_info.max, -sys.float_info.max],
                         ids=["float_max", "minus_float_max"])
def test_flat_x_axis_at_the_largest_floats(x):
    # widened by a millionth of its magnitude, the axis is cut back at the
    # largest float rather than overflowing
    _assert_inside_the_box(
        svgplot.line_chart([("a", [(x, 0.0), (x, 1.0)])], "t", "x", "y")
    )


def test_flat_x_axis_widens_on_both_sides():
    # a one-sample run spans x - 1 .. x + 1, so its sample is centered
    svg = svgplot.line_chart([("a", [(3.0, 0.5)])], "t", "x", "y")
    _assert_inside_the_box(svg)
    coords = re.search(r'<polyline points="([^"]+)"', svg).group(1)
    plot_width = svgplot.WIDTH - svgplot.MARGIN_L - svgplot.MARGIN_R
    assert float(coords.split(",")[0]) == svgplot.MARGIN_L + plot_width / 2


def _assert_inside_the_box(svg):
    """No nan or inf, and every tick and data point inside the plot box."""
    assert not re.search(r"\b(nan|inf)\b", svg)
    xs, ys = _tick_positions(svg)
    assert len(xs) >= 2 and len(ys) >= 2
    left, top = svgplot.MARGIN_L, svgplot.MARGIN_T
    right = svgplot.WIDTH - svgplot.MARGIN_R
    bottom = svgplot.HEIGHT - svgplot.MARGIN_B
    assert all(left <= x <= right for x in xs), xs
    assert all(top <= y <= bottom for y in ys), ys
    # and so is the data
    coords = re.search(r'<polyline points="([^"]+)"', svg).group(1)
    for pair in coords.split():
        x, y = map(float, pair.split(","))
        assert left <= x <= right and top <= y <= bottom, pair


@pytest.mark.parametrize("series", [[], [("a", [])], [("a", []), ("b", [])]])
def test_no_points_rejected(series):
    with pytest.raises(ValueError, match="at least one non-empty series"):
        svgplot.line_chart(series, "t", "x", "y")


# an axis all infinite once raised a bare "math domain error", a NaN
# "cannot convert float NaN to integer", and an infinite value next to
# finite ones was drawn as "inf,426.591" or "780,-inf"
@pytest.mark.parametrize("series, label, index", [
    ([("a", [(0.0, math.inf)])], "a", 0),
    ([("a", [(0.0, math.nan), (1.0, 1.0)])], "a", 0),
    ([("a", [(0.0, 0.0)]), ("b", [(math.inf, 0.0), (0.0, 1.0)])], "b", 0),
    ([("a", [(0.0, 0.0), (1.0, math.inf)])], "a", 1),
], ids=["all_infinite", "nan", "infinite_x", "infinite_y"])
def test_non_finite_point_rejected(series, label, index):
    with pytest.raises(ValueError, match=f"^series '{label}': point {index} "
                       r"\(.*\) is not finite$"):
        svgplot.line_chart(series, "t", "x", "y")
