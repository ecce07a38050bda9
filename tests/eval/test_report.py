"""Tests for report rendering."""

import pytest

from repro.errors import ExperimentError
from repro.eval.experiment import FigureResult
from repro.eval.report import format_counts, format_figure, format_table, format_trials


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["x", "value"], [[1, 10.5], [200, 3.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "x" in lines[0] and "value" in lines[0]
        assert set(lines[1]) <= {"-", " "}
        # Columns right-aligned: the widths are consistent.
        assert len(lines[2]) == len(lines[3])

    def test_float_formatting(self):
        text = format_table(["v"], [[1.23456789]])
        assert "1.2346" in text


class TestFormatTrials:
    TRIALS = [
        {"scheme": "BPR", "recall": 0.5, "drops": {"offline": 2, "cut": 1}},
        {"scheme": "BPS", "recall": 0.25, "drops": {}},
    ]

    def test_key_column_prints_the_trial_value(self):
        text = format_trials(self.TRIALS, (("scheme", "scheme"), ("r", "recall")))
        header, _rule, first, second = text.splitlines()
        assert header.split() == ["scheme", "r"]
        assert first.split() == ["BPR", "0.5000"]
        assert second.split() == ["BPS", "0.2500"]

    def test_callable_column_is_called_with_the_trial(self):
        columns = (("drops", lambda trial: format_counts(trial["drops"])),)
        _header, _rule, first, second = format_trials(self.TRIALS, columns).splitlines()
        assert first.strip() == "cut=1 offline=2"
        assert second.strip() == "-"

    def test_missing_key_names_column_key_and_what_the_trial_has(self):
        with pytest.raises(ExperimentError) as error:
            format_trials(self.TRIALS, (("hops", "answer_hops"),))
        message = str(error.value)
        assert "'hops'" in message and "'answer_hops'" in message
        assert "recall" in message


class TestFigureResult:
    def test_add_and_query(self):
        result = FigureResult("F", "t", "x", "y")
        result.add_point("a", 1, 2.0)
        result.add_point("a", 2, 3.0)
        assert result.series_named("a") == [(1, 2.0), (2, 3.0)]
        assert result.y_values("a") == [2.0, 3.0]

    def test_unknown_series(self):
        result = FigureResult("F", "t", "x", "y")
        with pytest.raises(ExperimentError):
            result.series_named("ghost")


class TestFormatFigure:
    def test_renders_all_series(self):
        result = FigureResult("Figure 9", "demo", "n", "seconds")
        result.add_point("BP", 1, 0.5)
        result.add_point("BP", 2, 0.6)
        result.add_point("CS", 1, 0.7)
        text = format_figure(result)
        assert "Figure 9" in text
        assert "BP" in text and "CS" in text
        assert "0.5000" in text

    def test_missing_points_rendered_as_dash(self):
        result = FigureResult("F", "t", "x", "y")
        result.add_point("a", 1, 1.0)
        result.add_point("b", 2, 2.0)
        text = format_figure(result)
        assert "-" in text.splitlines()[-1] or "-" in text

    def test_notes_included(self):
        result = FigureResult("F", "t", "x", "y", notes="scaled down")
        result.add_point("a", 1, 1.0)
        assert "scaled down" in format_figure(result)
