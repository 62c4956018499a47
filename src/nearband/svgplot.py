"""Tiny deterministic SVG line charts for the CLI's --svg convenience view.

The CSV tables are the contract; these charts are a quick visual check.
Non-finite samples (the ``inf`` divergence sentinel) split a polyline.
"""

from __future__ import annotations

import math

__all__ = ["svg_line_chart"]

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 160, 40, 50
_TICKS = 5
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")


def _transform(value: float, lo: float, hi: float, log: bool) -> float:
    if log:
        return (math.log10(value) - math.log10(lo)) / (math.log10(hi) - math.log10(lo))
    return (value - lo) / (hi - lo)


def _ticks(lo: float, hi: float, log: bool):
    if log:
        lo_e, hi_e = math.log10(lo), math.log10(hi)
        return [10.0 ** (lo_e + (hi_e - lo_e) * i / (_TICKS - 1)) for i in range(_TICKS)]
    return [lo + (hi - lo) * i / (_TICKS - 1) for i in range(_TICKS)]


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e4 or abs(value) < 1e-3:
        return f"{value:.2e}"
    return f"{value:.4g}"


def svg_line_chart(series, title: str, xlabel: str, ylabel: str,
                   logy: bool = False) -> str:
    """Render labelled (xs, ys) series to an SVG document string.

    ``series`` is a sequence of (label, xs, ys) triples.  Axis ranges are
    taken from the finite data; a log y axis drops nonpositive samples.
    """
    def plottable(x: float, y: float) -> bool:
        return math.isfinite(x) and math.isfinite(y) and (not logy or y > 0)

    pts = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys) if plottable(x, y)]
    if not pts:
        raise ValueError("no finite data to plot")
    x_lo = min(p[0] for p in pts)
    x_hi = max(p[0] for p in pts)
    y_lo = min(p[1] for p in pts)
    y_hi = max(p[1] for p in pts)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + plot_w * _transform(x, x_lo, x_hi, False)

    def py(y: float) -> float:
        return _MARGIN_T + plot_h * (1.0 - _transform(y, y_lo, y_hi, logy))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black"/>',
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="18" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.1f})">{ylabel}</text>',
    ]
    for t in _ticks(x_lo, x_hi, False):
        x = px(t)
        out.append(f'<line x1="{x:.2f}" y1="{_MARGIN_T + plot_h}" x2="{x:.2f}" '
                   f'y2="{_MARGIN_T + plot_h + 5}" stroke="black"/>')
        out.append(f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="10">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi, logy):
        y = py(t)
        out.append(f'<line x1="{_MARGIN_L - 5}" y1="{y:.2f}" x2="{_MARGIN_L}" '
                   f'y2="{y:.2f}" stroke="black"/>')
        out.append(f'<text x="{_MARGIN_L - 8}" y="{y + 3:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="10">{_fmt(t)}</text>')

    for k, (label, xs, ys) in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        run = []
        chunks = []
        for x, y in zip(xs, ys):
            if plottable(x, y):
                run.append(f"{px(x):.2f},{py(y):.2f}")
            elif run:
                chunks.append(run)
                run = []
        if run:
            chunks.append(run)
        for chunk in chunks:
            if len(chunk) == 1:
                cx, cy = chunk[0].split(",")
                out.append(f'<circle cx="{cx}" cy="{cy}" r="2" fill="{color}"/>')
            else:
                out.append(f'<polyline points="{" ".join(chunk)}" fill="none" '
                           f'stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 16 + 16 * k
        lx = _WIDTH - _MARGIN_R + 10
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
