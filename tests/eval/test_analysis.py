"""Tests for ASCII plotting."""

import pytest

from repro.errors import ExperimentError
from repro.eval.experiment import FigureResult
from repro.eval.plot import render_ascii_plot


def figure(**series):
    result = FigureResult("F", "test", "x", "y")
    for name, points in series.items():
        for x, y in points:
            result.add_point(name, x, y)
    return result


class TestAsciiPlot:
    def test_renders_markers_and_legend(self):
        result = figure(
            BPR=[(1, 1.0), (2, 2.0), (3, 3.0)],
            CS=[(1, 3.0), (2, 2.0), (3, 1.0)],
        )
        text = render_ascii_plot(result)
        assert "A=BPR" in text
        assert "B=CS" in text
        assert "A" in text and "B" in text
        # The crossing point (2, 2.0) is shared: overlap marker.
        assert "*" in text

    def test_single_point_series(self):
        result = figure(only=[(1, 5.0)])
        text = render_ascii_plot(result)
        assert "A=only" in text

    def test_axis_labels_present(self):
        result = figure(a=[(0, 0.0), (10, 100.0)])
        text = render_ascii_plot(result)
        assert "100" in text
        assert "10" in text

    def test_empty_figure_rejected(self):
        with pytest.raises(ExperimentError):
            render_ascii_plot(FigureResult("F", "t", "x", "y"))


class TestCliPlotFlag:
    def test_figure_with_plot(self, capsys):
        from repro.cli import main

        code = main(
            ["figure", "5c", "--objects", "20", "--queries", "2", "--plot"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "legend:" in out
