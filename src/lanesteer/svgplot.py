"""Minimal deterministic SVG line charts.

No plotting dependency: each chart is a fixed 800x500 viewbox with axes,
1-2-5 ticks, polyline series, and a legend.  Numbers are formatted with
%.6g so re-rendering the same data is byte-identical.
"""

from __future__ import annotations

import math
import sys

WIDTH, HEIGHT = 800, 500
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 55

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")

_FLOAT_MAX = sys.float_info.max


def _fmt(x: float) -> str:
    return "%.6g" % x


# the tick count a 1-2-5 step aims at
_TARGET_TICKS = 8


def _nice_step(lo: float, hi: float) -> float:
    """Tick spacing from the 1-2-5 ladder closest to (hi - lo)/_TARGET_TICKS
    from above."""
    # from halves, so that the span of two finite values cannot overflow
    half_span = hi / 2 - lo / 2
    if half_span <= 0:
        return 1.0
    raw = half_span / (_TARGET_TICKS / 2)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if mag * mult >= raw:
            return mag * mult
    return mag * 10.0


# more ticks than a 1-2-5 step gives on any span; bounds the loop should the
# step come near the spacing of the floats at the axis
_MAX_TICKS = 12


def _ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(lo, hi)
    # both ends forgive a billionth of a step
    first = math.ceil(lo / step - 1e-9)
    last = min(math.floor(hi / step + 1e-9), first + _MAX_TICKS - 1)
    out = []
    for i in range(first, last + 1):
        t = i * step
        out.append(0.0 if abs(t) < step * 1e-9 else t)
    return out


def _axis(values: list[float], pad: float) -> tuple[float, float]:
    """The (lo, hi) of an axis over values: a flat span widened by 1, or a
    millionth of its magnitude where that is more, on both sides; each end
    cut back at the largest float; then padded by `pad` of the span."""
    lo, hi = min(values), max(values)
    # below a few ulps of its magnitude a span is too narrow to scale to
    if hi - lo <= 16 * math.ulp(max(abs(lo), abs(hi))):
        half = max(1.0, 1e-6 * abs(lo))
        lo, hi = lo - half, hi + half
    lo, hi = max(lo, -_FLOAT_MAX), min(hi, _FLOAT_MAX)
    # from halves, which scale exactly, so that the span cannot overflow
    margin = pad * (hi / 2 - lo / 2)
    return max(lo - margin, -_FLOAT_MAX), min(hi + margin, _FLOAT_MAX)


def line_chart(
    series: list[tuple[str, list[tuple[float, float]]]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Render labeled (x, y) series as one SVG document string."""
    if not series or not any(pts for _, pts in series):
        raise ValueError("chart needs at least one non-empty series")
    x_lo, x_hi = _axis([p[0] for _, pts in series for p in pts], 0.0)
    y_lo, y_hi = _axis([p[1] for _, pts in series for p in pts], 0.1)
    # spans are taken from halves, which scale exactly, so that the span of
    # two finite values cannot overflow
    x_lo2, x_half_span = x_lo / 2, x_hi / 2 - x_lo / 2
    y_lo2, y_half_span = y_lo / 2, y_hi / 2 - y_lo / 2

    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    # the fraction of the span first, which cannot overflow
    def sx(x: float) -> float:
        return MARGIN_L + pw * ((x / 2 - x_lo2) / x_half_span)

    def sy(y: float) -> float:
        return MARGIN_T + ph * (1.0 - (y / 2 - y_lo2) / y_half_span)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
    # axes box
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    for t in _ticks(x_lo, x_hi):
        px = _fmt(sx(t))
        parts.append(
            f'<line x1="{px}" y1="{MARGIN_T + ph}" x2="{px}" '
            f'y2="{MARGIN_T + ph + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px}" y="{MARGIN_T + ph + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_fmt(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        py = _fmt(sy(t))
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{py}" x2="{MARGIN_L}" '
            f'y2="{py}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{py}" text-anchor="end" '
            f'dominant-baseline="middle" font-family="sans-serif" '
            f'font-size="12">{_fmt(t)}</text>'
        )
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{py}" x2="{MARGIN_L + pw}" y2="{py}" '
            'stroke="#dddddd" stroke-width="0.5"/>'
        )
    parts.append(
        f'<text x="{MARGIN_L + pw // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + ph // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 18 {MARGIN_T + ph // 2})">{ylabel}</text>'
    )
    for idx, (label, pts) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        ly = MARGIN_T + 14 + 18 * idx
        lx = MARGIN_L + pw - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
