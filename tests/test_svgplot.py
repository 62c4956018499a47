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
