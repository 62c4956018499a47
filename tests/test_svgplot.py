"""SVG line charts drawn from array series."""

import math
import re

import numpy as np
import pytest

from nearband.svgplot import svg_line_chart


def _marks(svg):
    polylines = [p.split() for p in re.findall(r'<polyline points="([^"]*)"', svg)]
    circles = re.findall(r'<circle cx="([^"]*)" cy="([^"]*)"', svg)
    return polylines, circles


def test_polyline_splits_at_inf():
    xs = np.arange(7.0)
    ys = np.array([0.0, 1.0, 2.0, math.inf, 1.0, 0.5, 0.0])
    polylines, circles = _marks(svg_line_chart([("s", xs, ys)], "t", "x", "y"))
    assert [len(p) for p in polylines] == [3, 3]
    assert circles == []
    # the x axis spans [0, 6] over 490 px from x = 70
    assert polylines[0][0].startswith("70.00,") and polylines[1][-1].startswith("560.00,")


def test_lone_finite_point_draws_a_circle():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    ys = np.array([1.0, math.inf, 2.0, 3.0])
    polylines, circles = _marks(svg_line_chart([("s", xs, ys)], "t", "x", "y"))
    assert [len(p) for p in polylines] == [2]
    assert len(circles) == 1 and circles[0][0] == "70.00"


def test_log_y_drops_nonpositive_samples():
    xs = np.arange(6.0)
    ys = np.array([10.0, 100.0, 0.0, -5.0, 1000.0, 10000.0])
    svg = svg_line_chart([("s", xs, ys)], "t", "x", "y", True)
    polylines, circles = _marks(svg)
    assert [len(p) for p in polylines] == [2, 2]
    assert circles == []
    # y ticks run over the positive samples only, 10 to 1e4
    assert ">1.00e+04</text>" in svg and ">10</text>" in svg


def test_arrays_and_lists_draw_the_same_chart():
    xs = np.linspace(-1.0, 1.0, 9)
    ys = np.where(np.abs(xs) > 0.6, math.inf, xs ** 2)
    series = [("a", xs, ys), ("b", xs[::2], -ys[::2])]
    as_lists = [(label, x.tolist(), y.tolist()) for label, x, y in series]
    assert svg_line_chart(series, "t", "x", "y") == svg_line_chart(as_lists, "t", "x", "y")


def test_no_finite_point_raises():
    with pytest.raises(ValueError, match="no finite data"):
        svg_line_chart([("s", np.array([1.0]), np.array([math.inf]))], "t", "x", "y")
    with pytest.raises(ValueError, match="no finite data"):
        svg_line_chart([("s", [1.0, 2.0], [0.0, -1.0])], "t", "x", "y", True)


def _fixed2(values):
    return [format(v, ".2f") for v in np.asarray(values).tolist()]


def test_points_match_format_2f():
    from nearband.svgplot import _points
    rng = np.random.default_rng(16)
    k = np.arange(100_000)
    near = np.concatenate([np.nextafter(v, d) for v in (k / 100, (2 * k + 1) / 200)
                           for d in (-np.inf, np.inf)])
    values = np.concatenate([
        rng.uniform(0.0, 1000.0, 1_000_000),
        (2 * np.arange(4000) + 1) / 8,  # exact ties of the hundredths
        near[(near >= 0.0) & (near < 1000.0)],
        [0.0],
    ])
    text = _points(values, values[::-1])
    expect = " ".join(map(",".join, zip(_fixed2(values), _fixed2(values[::-1]))))
    assert text == expect


def _per_point_marks(series, logy=False):
    """The marks as the per-point construction drew them: every kept sample
    through "{:.2f},{:.2f}".format, runs split at skipped samples."""
    kept = []
    for _, xs, ys in series:
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        ok = np.isfinite(xs) & np.isfinite(ys) & ((ys > 0) if logy else True)
        kept.append((np.flatnonzero(ok), xs[ok].tolist(), ys[ok].tolist()))
    x_lo = min(min(xs) for _, xs, _ in kept if xs)
    x_hi = max(max(xs) for _, xs, _ in kept if xs)
    y_lo = min(min(ys) for _, _, ys in kept if ys)
    y_hi = max(max(ys) for _, _, ys in kept if ys)
    ly = math.log10 if logy else float
    y_lo, y_hi = ly(y_lo), ly(y_hi)
    marks = []
    for index, xs, ys in kept:
        points = ["{:.2f},{:.2f}".format(70 + 490 * ((x - x_lo) / (x_hi - x_lo)),
                                         40 + 390 * (1.0 - (ly(y) - y_lo) / (y_hi - y_lo)))
                  for x, y in zip(xs, ys)]
        cuts = [0, *(np.flatnonzero(np.diff(index) > 1) + 1).tolist(), len(points)]
        for a, b in zip(cuts, cuts[1:]):
            if b - a == 1:
                marks.append(("", *points[a].split(",")))
            elif b > a:
                marks.append((" ".join(points[a:b]), "", ""))
    return marks


def _drawn_marks(svg):
    return re.findall(r'<polyline points="([^"]*)"|<circle cx="([^"]*)" cy="([^"]*)"', svg)


def _gapped(rng, n):
    ys = np.cumsum(rng.normal(size=n))
    ys[rng.choice(n, n // 50, replace=False)] = math.inf
    ys[5] = ys[7] = math.inf  # a lone point at index 6
    return ys


@pytest.mark.parametrize("logy", [False, True])
def test_chart_matches_the_per_point_construction(logy):
    rng = np.random.default_rng(7)
    xs = np.linspace(-3.0, 3.0, 400)
    series = [(f"s{k}", xs, _gapped(rng, xs.size) ** (2 if logy else 1)) for k in range(3)]
    series.append(("lone", [0.25, 1.0], [math.inf, 4.0]))
    svg = svg_line_chart(series, "t", "x", "y", logy)
    marks = _per_point_marks(series, logy)
    assert any(m[1] for m in marks) and any(m[0] for m in marks)
    assert _drawn_marks(svg) == marks
    assert svg.endswith("</svg>\n") and "\n\n" not in svg


def test_long_series_match_the_per_point_construction():
    # six 15,000-point cuts, as gain-cuts draws them, and pixels on every
    # half hundredth, where v*100.0 rounds to a half the exact product is not
    rng = np.random.default_rng(3)
    g = np.linspace(0.0002, 3.0, 15_000)
    series = [(f"cut {k}", g, 20 * np.log10(np.abs(np.sinc(g * rng.uniform(0.5, 2.0))) + 1e-9))
              for k in range(6)]
    halves = np.arange(98_001) / 200.0
    series.append(("halves", halves, np.sin(halves)))
    svg = svg_line_chart(series, "t", "x", "y")
    assert _drawn_marks(svg) == _per_point_marks(series)
