"""Tiny deterministic SVG line charts for the CLI's --svg convenience view.

The CSV tables are the contract; these charts are a quick visual check.
Non-finite samples (the ``inf`` divergence sentinel) split a polyline.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["svg_line_chart"]

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 160, 40, 50
_TICKS = 5
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")


def _unit(values, lo: float, hi: float, log: bool) -> np.ndarray:
    """Position of each value between lo and hi, on a log10 scale if log."""
    values = np.asarray(values, dtype=float)
    if log:
        # math.log10 per element: np.log10 may differ from it in the last bit
        values = np.fromiter(map(math.log10, values.tolist()), float, values.size)
        lo, hi = math.log10(lo), math.log10(hi)
    return (values - lo) / (hi - lo)


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

    ``series`` holds (label, xs, ys) triples of equal-length arrays.  Axis
    ranges come from the finite data; a log y axis drops nonpositive samples.
    """
    arrays = []
    for label, xs, ys in series:
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        ok = np.isfinite(xs) & np.isfinite(ys) & ((ys > 0) if logy else True)
        arrays.append((label, xs[ok], ys[ok], np.flatnonzero(ok)))
    if not any(xs.size for _, xs, _, _ in arrays):
        raise ValueError("no finite data to plot")
    all_x = np.concatenate([xs for _, xs, _, _ in arrays])
    all_y = np.concatenate([ys for _, _, ys, _ in arrays])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x) -> list:
        return (_MARGIN_L + plot_w * _unit(x, x_lo, x_hi, False)).tolist()

    def py(y) -> list:
        return (_MARGIN_T + plot_h * (1.0 - _unit(y, y_lo, y_hi, logy))).tolist()

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
    ticks = _ticks(x_lo, x_hi, False)
    for t, x in zip(ticks, px(ticks)):
        out.append(f'<line x1="{x:.2f}" y1="{_MARGIN_T + plot_h}" x2="{x:.2f}" '
                   f'y2="{_MARGIN_T + plot_h + 5}" stroke="black"/>')
        out.append(f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="10">{_fmt(t)}</text>')
    ticks = _ticks(y_lo, y_hi, logy)
    for t, y in zip(ticks, py(ticks)):
        out.append(f'<line x1="{_MARGIN_L - 5}" y1="{y:.2f}" x2="{_MARGIN_L}" '
                   f'y2="{y:.2f}" stroke="black"/>')
        out.append(f'<text x="{_MARGIN_L - 8}" y="{y + 3:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="10">{_fmt(t)}</text>')

    for k, (label, xs, ys, kept) in enumerate(arrays):
        color = _COLORS[k % len(_COLORS)]
        points = list(map("{:.2f},{:.2f}".format, px(xs), py(ys)))
        # a skipped sample between two kept ones ends a run
        cuts = [0, *(np.flatnonzero(np.diff(kept) > 1) + 1).tolist(), len(points)]
        for a, b in zip(cuts, cuts[1:]):
            if b - a == 1:
                cx, cy = points[a].split(",")
                out.append(f'<circle cx="{cx}" cy="{cy}" r="2" fill="{color}"/>')
            elif b > a:
                out.append(f'<polyline points="{" ".join(points[a:b])}" fill="none" '
                           f'stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 16 + 16 * k
        lx = _WIDTH - _MARGIN_R + 10
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
