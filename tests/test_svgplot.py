import math
import re

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
