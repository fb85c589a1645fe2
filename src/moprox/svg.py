"""Minimal self-contained SVG scatter plots (axes, points, legend).

No plotting dependency; output bytes are deterministic for fixed input.
"""

from __future__ import annotations

import math

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
)

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 64, 150, 40, 56  # margins: right one holds the legend
_MAX = math.nextafter(math.inf, 0.0)


def _axis(lo, hi):
    """(s, lo, hi): an axis whose points span [lo, hi] plots v * s over that
    span times s, padded by 5% a side (0.05 for one value, or 5% of its
    magnitude where that is lost below one ulp) and clamped to the floats
    times s. s is 1/2 where the span at s = 1 overflows, so hi - lo > 0 is
    finite."""
    for s in (1.0, 0.5):
        a, b = lo * s, hi * s
        pad = 0.05 * (b - a or 1.0)
        if a - pad == b + pad:  # then a == b
            pad = 0.05 * abs(a)
        a, b = max(a - pad, -_MAX * s), min(b + pad, _MAX * s)
        if b - a < math.inf:
            return s, a, b


def _ticks(lo, hi, count=5):
    # i / (count - 1) first, so that (hi - lo) * i cannot overflow
    return [lo + (hi - lo) * (i / (count - 1)) for i in range(count)]


def _fmt(v):
    return f"{v:.4g}"


def _escape(text):
    """html.escape(text, quote=False), without loading html's entity tables."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def scatter_svg(series, xlabel, ylabel, title):
    """Render labeled point sets to an SVG string.

    ``series`` maps label -> (xs, ys) sequences; all series share the axes.
    A point with a nonfinite coordinate (F = NaN after an evaluation failure
    at the start) is neither drawn nor counted in the axis ranges; its
    series keeps its legend entry. Title, axis and legend labels are
    escaped, so a name holding ``&``, ``<`` or ``>`` stays well-formed XML.
    """
    title, xlabel, ylabel = map(_escape, (title, xlabel, ylabel))
    points = {
        label: [(x, y) for x, y in zip(map(float, xs), map(float, ys))
                if math.isfinite(x) and math.isfinite(y)]
        for label, (xs, ys) in series.items()
    }
    xs_all = [x for pts in points.values() for x, _ in pts]
    ys_all = [y for pts in points.values() for _, y in pts]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_s, x_lo, x_hi = _axis(min(xs_all), max(xs_all))
    y_s, y_lo, y_hi = _axis(min(ys_all), max(ys_all))

    def sx(u):  # u is an x value times x_s
        return _ML + (u - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(u):
        return _H - _MB - (u - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_ML}" y="24" font-family="sans-serif" font-size="15" '
        f'font-weight="bold">{title}</text>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        'stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
    ]
    for u in _ticks(x_lo, x_hi):
        px = sx(u)
        out += [
            f'<line x1="{px:.1f}" y1="{_H - _MB}" x2="{px:.1f}" y2="{_H - _MB + 5}" '
            'stroke="black"/>',
            f'<text x="{px:.1f}" y="{_H - _MB + 20}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{_fmt(u / x_s)}</text>',
        ]
    for u in _ticks(y_lo, y_hi):
        py = sy(u)
        out += [
            f'<line x1="{_ML - 5}" y1="{py:.1f}" x2="{_ML}" y2="{py:.1f}" '
            'stroke="black"/>',
            f'<text x="{_ML - 8}" y="{py + 4:.1f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{_fmt(u / y_s)}</text>',
        ]
    out += [
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 12}" '
        f'font-family="sans-serif" font-size="13" text-anchor="middle">{xlabel}</text>',
        f'<text x="18" y="{(_MT + _H - _MB) / 2:.1f}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {(_MT + _H - _MB) / 2:.1f})">{ylabel}</text>',
    ]
    for idx, (label, pts) in enumerate(points.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        for xv, yv in pts:
            out.append(
                f'<circle cx="{sx(xv * x_s):.2f}" cy="{sy(yv * y_s):.2f}" r="3" '
                f'fill="{color}" fill-opacity="0.7"/>'
            )
        ly = _MT + 18 * idx
        out += [
            f'<circle cx="{_W - _MR + 16}" cy="{ly}" r="4" fill="{color}"/>',
            f'<text x="{_W - _MR + 26}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{_escape(label)}</text>',
        ]
    out.append("</svg>")
    return "\n".join(out) + "\n"
