"""Hand-rolled SVG chart output."""

import math

import pytest

from fertgames.svg import line_chart


def test_wellformed_markup():
    svg = line_chart([0.0, 1.0, 2.0], [0.5, 0.2, 0.0], "a_w", "n_star")
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 1
    assert ">a_w</text>" in svg
    assert ">n_star</text>" in svg


def test_deterministic_output():
    xs = [i / 7 for i in range(8)]
    ys = [math.sin(x) for x in xs]
    assert line_chart(xs, ys, "x", "y") == line_chart(xs, ys, "x", "y")


def test_constant_series_handled():
    svg = line_chart([0.0, 1.0], [2.0, 2.0], "x", "y")
    assert "<polyline" in svg


def test_constant_x_handled():
    svg = line_chart([3.0, 3.0], [0.0, 1.0], "x", "y")
    assert "<polyline" in svg


def test_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        line_chart([0.0, 1.0], [1.0], "x", "y")


def test_rejects_nonfinite_values():
    with pytest.raises(ValueError):
        line_chart([0.0, 1.0], [1.0, math.nan], "x", "y")


def test_polyline_spans_plot_area():
    svg = line_chart([0.0, 10.0], [0.0, 1.0], "x", "y")
    points = svg.split('points="')[1].split('"')[0]
    pairs = [tuple(map(float, pt.split(","))) for pt in points.split()]
    assert pairs[0][0] == pytest.approx(60.0)
    assert pairs[-1][0] == pytest.approx(660.0)
    # SVG y axis grows downward: the larger value sits at the plot top.
    assert pairs[-1][1] < pairs[0][1]
