"""Tests for the executable claims, their combinators and margins, and
the ``repro verify`` verdict."""

import copy

import pytest

from repro import cli
from repro.errors import ExperimentError
from repro.eval.claims import (
    CLAIMS,
    EXTENSION,
    FAIL,
    MISSING,
    PAPER,
    PASS,
    Check,
    Claim,
    Margin,
    above,
    all_of,
    at_least,
    at_most,
    below,
    crosses,
    equals,
    field,
    fired,
    flat,
    growth,
    rises,
    verify_all,
    verify_figure,
    within,
    y_at,
    y_of,
)
from repro.eval.experiment import FigureResult


def figure(trials=(), **series):
    result = FigureResult("F", "synthetic", "x", "y", trials=list(trials))
    for name, points in series.items():
        for x, y in points:
            result.add_point(name, x, y)
    return result


def paper_shaped_5a():
    return figure(
        SCS=[(2, 0.05), (8, 0.4), (32, 1.8)],
        CS=[(2, 0.055), (8, 0.059), (32, 0.077)],
        BPS=[(2, 0.061), (8, 0.063), (32, 0.074)],
        BPR=[(2, 0.061), (8, 0.063), (32, 0.074)],
    )


def anti_shaped_5a():
    """SCS flat, MCS wildly better: the claims must reject this."""
    return figure(
        SCS=[(2, 0.05), (8, 0.05), (32, 0.05)],
        CS=[(2, 0.01), (8, 0.01), (32, 0.01)],
        BPS=[(2, 0.06), (8, 0.06), (32, 0.06)],
        BPR=[(2, 0.02), (8, 0.02), (32, 0.02)],
    )


def anti_shaped_8a():
    """BP slower than Gnutella and Gnutella all over the place."""
    return figure(
        BP=[(1, 0.09), (2, 0.095), (3, 0.09), (4, 0.09)],
        Gnutella=[(1, 0.083), (2, 0.03), (3, 0.083), (4, 0.2)],
    )


def anti_shaped_8b():
    """BP gets slower with more peers and ends behind Gnutella."""
    return figure(BP=[(2, 0.077), (8, 0.090)], Gnutella=[(2, 0.129), (8, 0.083)])


class TestVerifyFigure:
    def test_paper_shape_passes_all_5a_claims(self):
        outcome = verify_figure("5a", paper_shaped_5a())
        assert all(holds for _, holds in outcome)
        assert len([claim for claim, _ in outcome if claim.tag == PAPER]) == 4

    def test_anti_shape_fails(self):
        outcome = verify_figure("5a", anti_shaped_5a())
        assert not all(holds for _, holds in outcome)

    def test_missing_series_is_a_failure_not_a_crash(self):
        outcome = verify_figure("5a", figure(SCS=[(1, 1.0), (2, 10.0)]))
        assert all(holds is False for claim, holds in outcome if "scs" not in claim.claim_id)
        report, held = verify_all({"5a": figure(SCS=[(1, 1.0), (2, 10.0)])})
        assert not held
        assert "[MISSING] Figure 5(a): MCS is slightly better" in report
        assert "[MISSING] Figure 5(a): the Single-Thread CS" in report
        assert "0/4 paper claims hold" in report

    def test_unknown_figure_key(self):
        with pytest.raises(ExperimentError):
            verify_figure("9z", figure(a=[(1, 1.0)]))

    def test_8a_claims(self):
        good = figure(
            BP=[(1, 0.08), (2, 0.05), (3, 0.05), (4, 0.05)],
            Gnutella=[(1, 0.083), (2, 0.083), (3, 0.083), (4, 0.083)],
        )
        assert all(holds for _, holds in verify_figure("8a", good))
        assert not all(holds for _, holds in verify_figure("8a", anti_shaped_8a()))

    def test_5c_crossover_claim(self):
        good = figure(
            CS=[(2, 0.05), (4, 0.10), (8, 0.20)],
            BPS=[(2, 0.061), (4, 0.077), (8, 0.111)],
            BPR=[(2, 0.061), (4, 0.066), (8, 0.076)],
        )
        outcome = dict(
            (claim.claim_id, holds) for claim, holds in verify_figure("5c", good)
        )
        assert outcome["5c-crossover"]
        assert outcome["5c-bpr"]


class TestVerifyAll:
    def test_report_counts(self):
        report, held = verify_all({"5a": paper_shaped_5a()})
        assert held
        assert "4/4 paper claims hold" in report
        assert "PASS" in report
        assert "FAIL" not in report

    def test_report_marks_failures(self):
        report, held = verify_all({"5a": anti_shaped_5a()})
        assert not held
        assert "FAIL" in report

    def test_missing_figures_skipped(self):
        report, held = verify_all({})
        assert held
        assert "0/0" in report

    def test_claim_registry_covers_the_evaluation(self):
        # Every experiment the CLI runs carries at least one claim.
        runnable = set(cli.FIGURES) | {f"ablation {name}" for name in cli.ABLATIONS}
        assert set(CLAIMS) == runnable
        assert all(CLAIMS[key] for key in runnable)
        claims = [claim for claims in CLAIMS.values() for claim in claims]
        # A repeated id inside one figure's dict would drop a row silently.
        assert len(claims) == 57
        assert len([claim for claim in claims if claim.tag == PAPER]) == 16
        assert {claim.tag for claim in claims} == {PAPER, EXTENSION}
        assert len({claim.claim_id for claim in claims}) == len(claims)


ROUTING_STRATEGIES = ("static", "maxcount", "history", "costaware", "superpeer")


#: What a fired churn-outage-partition plan records at a nonzero rate.
PLAN_FIRED = {"node-crash": 2, "liglo-down": 1, "partition": 1}


def paper_shaped_results():
    """One canned result per ``repro verify`` key, shaped so that every
    claim of the table holds (no experiment is run)."""
    churn_trials = [
        {
            "scheme": scheme,
            "rate": rate,
            "faults_applied": dict(PLAN_FIRED) if rate else {},
        }
        for scheme in ("BPS", "BPR", "BPR+RF2")
        for rate in (0.0, 0.5)
    ]
    replication_trials = [
        {
            "scheme": scheme,
            "rate": rate,
            "bytes_per_query": {"RF1": 100.0, "RF2": 120.0, "RF2+cache": 110.0}[scheme],
            "replication": {"replica_answers": 3, "cache_hits": 2},
            "faults_applied": {"node-crash": 1} if rate else {},
        }
        for scheme in ("RF1", "RF2", "RF2+cache")
        for rate in (0.0, 0.3, 0.5)
    ]
    routing_trials = [
        {
            "strategy": strategy,
            "rate": rate,
            "mean_recall": 1.0 if rate == 0 else 0.8,
            "messages_per_query": 5.0 if strategy == "superpeer" else 20.0,
            "bytes_per_query": 500.0 if strategy == "superpeer" else 2000.0,
            "hint_hits": 2 if strategy == "superpeer" else 0,
            "faults_applied": dict(PLAN_FIRED) if rate else {},
        }
        for strategy in ROUTING_STRATEGIES
        for rate in (0.0, 0.3)
    ]
    topk_trials = [
        {
            "k": k,
            "ttl": ttl,
            "rate": rate,
            "bytes_per_query": 1000.0 if k is None else 400.0,
            "quality": {"4": 1.0, "16": 1.0},
            "dominated_per_query": 0.0 if k is None else 3.0,
            "digests_per_query": 0.0 if k is None else 2.0,
            "faults_applied": {"node-crash": 1} if rate else {},
        }
        for k in (4, 16, None)
        for ttl in (2, 4, 8)
        for rate in (0.0, 0.3)
    ]
    recall = {
        "BPS": [(0.0, 1.0), (0.5, 0.6)],
        "BPR": [(0.0, 1.0), (0.5, 0.7)],
        "BPR+RF2": [(0.0, 1.0), (0.5, 0.8)],
    }
    return {
        "5a": paper_shaped_5a(),
        "5b": figure(
            CS=[(1, 0.055), (2, 0.088), (5, 0.329)],
            BPS=[(1, 0.061), (2, 0.070), (5, 0.100)],
            BPR=[(1, 0.061), (2, 0.065), (5, 0.097)],
        ),
        "5c": figure(
            CS=[(2, 0.05), (4, 0.10), (8, 0.20)],
            BPS=[(2, 0.061), (4, 0.077), (8, 0.111)],
            BPR=[(2, 0.061), (4, 0.066), (8, 0.076)],
        ),
        "6": figure(
            CS=[(1, 0.055), (31, 0.204)],
            BPS=[(1, 0.061), (31, 0.094)],
            BPR=[(1, 0.061), (31, 0.089)],
        ),
        "7": figure(
            CS=[(0.055, 10), (0.204, 310)],
            BPS=[(0.061, 10), (0.094, 310)],
            BPR=[(0.061, 10), (0.089, 310)],
        ),
        "8a": figure(
            BP=[(1, 0.08), (2, 0.05), (3, 0.05), (4, 0.05)],
            Gnutella=[(1, 0.083), (2, 0.083), (3, 0.083), (4, 0.083)],
        ),
        "8b": figure(
            BP=[(2, 0.077), (8, 0.058)], Gnutella=[(2, 0.129), (8, 0.083)]
        ),
        "churn": figure(churn_trials, **recall),
        "replication": figure(
            replication_trials,
            RF1=[(0.0, 1.0), (0.3, 0.8), (0.5, 0.6)],
            RF2=[(0.0, 1.0), (0.3, 0.97), (0.5, 0.9)],
            **{"RF2+cache": [(0.0, 1.0), (0.3, 0.97), (0.5, 0.9)]},
        ),
        "routing": figure(
            routing_trials,
            **{
                strategy: [(0.0, 1.0), (0.3, 0.8)]
                for strategy in ROUTING_STRATEGIES
            },
        ),
        "topk": figure(
            topk_trials, **{"k=4": [(8, 400.0)], "exhaustive": [(8, 1000.0)]}
        ),
        "ablation strategy": figure(
            maxcount=[(1, 0.2), (2, 0.1)],
            minhops=[(1, 0.2), (2, 0.1)],
            static=[(1, 0.2), (2, 0.2)],
        ),
        "ablation ttl": figure(
            responders=[(2, 2), (8, 8), (16, 15)],
            **{"completion (s)": [(2, 0.05), (16, 0.2)]},
        ),
        "ablation result-mode": figure(direct=[(1, 0.10)], metadata=[(1, 0.09)]),
        "ablation buffer": figure(lru=[(1, 1.0)], mru=[(1, 0.6)]),
        "ablation replication": figure(**{"first answer (s)": [(1, 0.07), (8, 0.05)]}),
        "ablation shipping": figure(
            adaptive=[(1, 0.10), (2, 0.105), (3, 0.11)],
            **{
                "always-code": [(1, 0.04), (2, 0.08), (3, 0.12)],
                "always-data": [(1, 0.10), (2, 0.105), (3, 0.11)],
            },
        ),
    }


class TestVerifyCommand:
    """``repro verify``'s exit status is the conjunction of every claim,
    paper and extension alike, over canned results."""

    @staticmethod
    def _run(monkeypatch, results):
        for key, entry in cli.FIGURES.items():
            canned = lambda params, key=key: results[key]  # noqa: E731
            monkeypatch.setitem(cli.FIGURES, key, entry._replace(run=canned))
        for name in cli.ABLATIONS:
            canned = lambda params, key=f"ablation {name}": results[key]  # noqa: E731
            monkeypatch.setitem(cli.ABLATIONS, name, canned)
        return cli.main(["verify"])

    def test_canned_results_satisfy_every_claim(self):
        results = paper_shaped_results()
        for key in CLAIMS:
            assert all(holds for _, holds in verify_figure(key, results[key])), key

    def test_exits_0_when_every_claim_holds(self, monkeypatch, capsys):
        assert self._run(monkeypatch, paper_shaped_results()) == 0
        out = capsys.readouterr().out
        total = sum(len(claims) for claims in CLAIMS.values())
        assert "16/16 paper claims hold" in out
        assert f"{total - 16}/{total - 16} extension claims hold" in out
        assert "FAIL" not in out

    def test_exits_1_when_a_paper_claim_fails(self, monkeypatch, capsys):
        results = paper_shaped_results()
        results["8b"] = anti_shaped_8b()
        assert self._run(monkeypatch, results) == 1
        out = capsys.readouterr().out
        assert "[FAIL] Figure 8(b): as the number of directly connected" in out
        assert "14/16 paper claims hold" in out

    def test_exits_1_when_an_extension_claim_fails(self, monkeypatch, capsys):
        results = paper_shaped_results()
        churn = copy.deepcopy(results["churn"])
        for trial in churn.trials:
            trial["faults_applied"] = {}
        results["churn"] = churn
        assert self._run(monkeypatch, results) == 1
        out = capsys.readouterr().out
        assert "16/16 paper claims hold" in out
        assert "[FAIL] Churn figure: at the highest rate the fault plan" in out

    def test_exits_1_when_a_series_is_missing(self, monkeypatch, capsys):
        results = paper_shaped_results()
        results["5b"] = copy.deepcopy(results["5b"])
        del results["5b"].series["BPS"]
        assert self._run(monkeypatch, results) == 1
        out = capsys.readouterr().out
        assert "[MISSING] Figure 5(b): when the number of levels is 1, CS is" in out
        assert "[MISSING] Figure 5(b): BPR outperforms BPS" in out
        assert "[FAIL]" not in out
        assert "13/16 paper claims hold" in out


def status(check, result=None):
    """One check's status, judged as a table row would be."""
    return Claim("t", "F", "q", check).status(result or figure())


#: What each combinator must do just inside and just outside its bound,
#: including a strict and an inclusive bound met exactly (margin 0).
BOUNDARIES = [
    (below(0.999, 1.0), PASS),
    (below(1.0, 1.0), FAIL),
    (below(1.99, 2.0), PASS),
    (below(2.0, 2.0), FAIL),
    (at_most(1.0, 1.0), PASS),
    (at_most(1.001, 1.0), FAIL),
    (at_most(1.02, 1.0, 1.02), PASS),
    (at_most(1.0201, 1.0, 1.02), FAIL),
    (above(1.001, 1.0), PASS),
    (above(1.0, 1.0), FAIL),
    (above(5.001, 1.0, 5.0), PASS),
    (above(5.0, 1.0, 5.0), FAIL),
    (at_least(1.0, 1.0), PASS),
    (at_least(0.999, 1.0), FAIL),
    (at_least(0.95, 1.0, 0.95), PASS),
    (at_least(0.9499, 1.0, 0.95), FAIL),
    (within(0.75, 1.0, 0.25), PASS),
    (within(0.7499, 1.0, 0.25), FAIL),
    (equals(15, 15), PASS),
    (equals(14.999, 15), FAIL),
    (all_of(at_most(1.0, 1.0), at_least(1.0, 1.0)), PASS),
    (all_of(at_most(1.0, 1.0), below(1.0, 1.0)), FAIL),
    (all_of(below(0.5, 1.0), above(0.5, 1.0)), FAIL),
]

#: The same for the combinators that read whole series or trials.
SERIES_BOUNDARIES = [
    (flat("a", 0.25), figure(a=[(1, 1.0), (2, 0.75)]), PASS),
    (flat("a", 0.25), figure(a=[(1, 1.0), (2, 0.7499)]), FAIL),
    (rises("a"), figure(a=[(1, 1.0), (2, 2.0), (3, 2.0)]), PASS),
    (rises("a"), figure(a=[(1, 1.0), (2, 2.0), (3, 1.999)]), FAIL),
    (
        crosses("a", "b", 2),
        figure(a=[(1, 0.5), (2, 1.0), (3, 2.0)], b=[(1, 1.0), (2, 1.0), (3, 1.0)]),
        PASS,
    ),
    (
        crosses("a", "b", 1),
        figure(a=[(1, 0.5), (2, 1.0), (3, 2.0)], b=[(1, 1.0), (2, 1.0), (3, 1.0)]),
        FAIL,
    ),
    (below("a", "b"), figure(a=[(1, 1.0), (2, 1.999)], b=[(1, 2.0), (2, 2.0)]), PASS),
    (below("a", "b"), figure(a=[(1, 1.0), (2, 2.0)], b=[(1, 2.0), (2, 2.0)]), FAIL),
]


def fault_trials(**applied):
    """A swept figure whose top-rate trial applied ``applied``."""
    top = {"node-crash": 1, "liglo-down": 1, "partition": 1, **applied}
    return figure(
        [{"rate": 0.0, "faults_applied": {}}, {"rate": 0.5, "faults_applied": top}]
    )


class TestCombinators:
    @pytest.mark.parametrize("check, expected", BOUNDARIES)
    def test_each_bound_flips_at_its_threshold(self, check, expected):
        assert status(check) == expected

    @pytest.mark.parametrize("check, result, expected", SERIES_BOUNDARIES)
    def test_series_bounds_flip_at_their_threshold(self, check, result, expected):
        assert status(check, result) == expected

    def test_fired_counts_each_fault_of_the_top_rate(self):
        assert status(fired(), fault_trials()) == PASS
        assert status(fired(), fault_trials(**{"node-crash": 0})) == FAIL
        assert status(fired(), fault_trials(**{"liglo-down": 2})) == FAIL
        assert status(fired(False), fault_trials(partition=0)) == PASS
        assert status(fired(), fault_trials(partition=0)) == FAIL

    def test_a_strict_zero_ranks_below_an_inclusive_zero(self):
        margin = all_of(at_most(1.0, 1.0), below(1.0, 1.0))(figure())
        assert margin == Margin(0.0, False)
        assert min(Margin(0.0, True), Margin(0.0, False)) == Margin(0.0, False)

    def test_margin_is_the_relative_gap(self):
        # 8(a) run 1 at seed 0: BP 0.0811 s against Gnutella 0.0831 s.
        margin = below(0.0811, 0.0831)(figure())
        assert margin.value == pytest.approx(0.024, abs=0.001)
        assert within(1.0, 1.1, 0.15)(figure()).value == pytest.approx(0.15 - 0.1 / 1.1)

    def test_trial_fields_pair_trial_by_trial(self):
        trials = [
            {"scheme": scheme, "rate": rate, "bytes": size}
            for scheme, sizes in (("a", (100, 150)), ("b", (100, 100)))
            for rate, size in zip((0.0, 0.3), sizes)
        ]
        a, b = field("bytes", scheme="a"), field("bytes", scheme="b")
        assert status(at_most(a, b, 1.5), figure(trials)) == PASS
        assert status(at_most(a, b, 1.49), figure(trials)) == FAIL


class TestMissingEvidence:
    @pytest.mark.parametrize(
        "check",
        [
            below(y_of("a", 0), 1.0),  # no such series
            below(y_of("b", 5), 1.0),  # no such index
            below(y_at("b", 9), 1.0),  # no such point
            below("b", "c"),  # "c" has no point at x=2
            at_least(field("hits", scheme="RF9"), 1),  # no such trial
            at_least(field("hits.cache", scheme="RF1"), 1),  # no such field
        ],
    )
    def test_a_probe_that_finds_nothing_is_missing(self, check):
        result = figure(
            [{"scheme": "RF1", "rate": 0.0, "hits": 3}],
            b=[(1, 0.5), (2, 0.5)],
            c=[(1, 1.0)],
        )
        assert status(check, result) == MISSING

    def test_what_a_combinator_cannot_judge_fails(self):
        assert status(above(growth("a"), 1.0), figure(a=[(1, 0.0), (2, 1.0)])) == FAIL
        assert status(crosses("a", "b"), figure(a=[(1, 1.0)], b=[(2, 1.0)])) == FAIL


def thresholds(check):
    """Every number a row wrote as a combinator argument (a probe's own
    arguments, and ``fired``'s trial keys, are coordinates)."""
    found = set()
    for arg in check.args:
        if isinstance(arg, Check):
            found |= thresholds(arg)
        elif isinstance(arg, (int, float)) and not isinstance(arg, bool):
            found.add(arg)
    return found


#: Each claim whose quote states its threshold: the words, and the number
#: its row must pass ("within 2%" bounds from above, "within 5%" from below).
STATED = {
    "5a-scs-5x": ("over 5x", 5.0),
    "topk-bytes": ("halve", 0.5),
    "replication-overhead": ("at most 1.5x", 1.5),
    "replication-resilient": (">= 0.95", 0.95),
    "7-bpr": ("within 2%", 1 + 0.02),
    "8a-settled": ("within 5%", 1 - 0.05),
    "A3-coverage": ("all 15", 15),
}


class TestTable:
    def test_every_stated_threshold_is_its_rows_argument(self):
        claims = {claim.claim_id: claim for row in CLAIMS.values() for claim in row}
        for claim_id, (words, number) in STATED.items():
            assert words in claims[claim_id].quote, claim_id
            assert thresholds(claims[claim_id].check) == {number}, claim_id

    def test_margin_sign_agrees_with_the_verdict(self):
        judged = list(paper_shaped_results().items()) + [
            ("5a", anti_shaped_5a()),
            ("8a", anti_shaped_8a()),
            ("8b", anti_shaped_8b()),
        ]
        failed = set()
        for key, result in judged:
            for claim in CLAIMS[key]:
                margin = claim.check(result)
                assert margin.holds == (claim.status(result) == PASS), claim.claim_id
                assert margin.holds == (
                    margin.value > 0 or (margin.value == 0 and margin.inclusive)
                )
                if not margin.holds:
                    failed.add(claim.claim_id)
        assert failed == {
            "5a-scs",
            "5a-mcs",
            "5a-static",
            "5a-scs-5x",
            "8a-flat",
            "8a-first",
            "8a-wins",
            "8b-improve",
            "8b-superior",
        }
