"""Tests for the command-line interface."""

import pytest

from repro.cli import ABLATIONS, FIGURES, build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_figure_command_with_scale(self):
        args = build_parser().parse_args(
            ["figure", "5a", "--objects", "50", "--queries", "2"]
        )
        assert args.name == "5a"
        assert args.objects == 50
        assert args.queries == 2

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "9z"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_verify_command_parses(self):
        args = build_parser().parse_args(["verify", "--objects", "50"])
        assert args.command == "verify"
        assert args.objects == 50

    def test_every_registered_name_parses(self):
        parser = build_parser()
        for name in FIGURES:
            assert parser.parse_args(["figure", name]).name == name
        for name in ABLATIONS:
            assert parser.parse_args(["ablation", name]).name == name


class TestExecution:
    def test_list_prints_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in FIGURES:
            assert name in out
        for name in ABLATIONS:
            assert name in out

    def test_figure_small_scale(self, capsys):
        code = main(["figure", "5c", "--objects", "30", "--queries", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 5(c)" in out
        assert "BPR" in out

    def test_ablation_small_scale(self, capsys):
        code = main(["ablation", "ttl", "--objects", "30", "--queries", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Ablation A3" in out

    @pytest.mark.parametrize("queries", ["0", "-1"])
    @pytest.mark.parametrize("name", ["churn", "5a"])
    def test_bad_scale_is_an_error_line_not_a_traceback(self, capsys, name, queries):
        assert main(["figure", name, "--queries", queries]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: queries must be >= 1\n"

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "query 1" in out
        assert "speedup" in out
