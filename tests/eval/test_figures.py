"""Smoke tests for the figure experiments at reduced scale.

Each test checks that a figure runs end to end and that its *shape*
matches the paper's qualitative claims.  The full-scale runs and their
claims are ``python -m repro verify`` (``repro.eval.claims``).
"""

import pytest

from repro.agents.costs import AgentCosts
from repro.eval.figures import (
    FigureParams,
    figure_5a,
    figure_5b,
    figure_5c,
    figure_8a,
    figure_8b,
    figures_6_and_7,
    tree_size_for_level,
)

SMALL = FigureParams(objects_per_node=60, corpus_size=10, queries=3)


@pytest.fixture(scope="module")
def fig5a():
    return figure_5a(SMALL, sizes=(2, 4, 8))


@pytest.fixture(scope="module")
def fig67():
    return figures_6_and_7(SMALL, node_count=10)


class TestFigure5a:
    def test_series_present(self, fig5a):
        assert set(fig5a.series) == {"SCS", "CS", "BPS", "BPR"}

    def test_scs_grows_steeply(self, fig5a):
        scs = fig5a.y_values("SCS")
        assert scs[-1] > 2 * scs[0]

    def test_mcs_beats_scs_at_scale(self, fig5a):
        assert fig5a.y_values("CS")[-1] < fig5a.y_values("SCS")[-1]

    def test_bps_equals_bpr_on_star(self, fig5a):
        """Nothing to reconfigure on a star."""
        bps = fig5a.y_values("BPS")
        bpr = fig5a.y_values("BPR")
        for left, right in zip(bps, bpr):
            assert left == pytest.approx(right, rel=0.05)


class TestFigure5b:
    def test_cs_wins_level_1_but_degrades(self):
        result = figure_5b(SMALL, levels=(1, 3))
        cs = result.y_values("CS")
        bps = result.y_values("BPS")
        assert cs[0] < bps[0]  # level 1: no code-shipping overhead
        assert cs[-1] > bps[-1]  # deeper: relay on the return path

    def test_bpr_never_worse_than_bps(self):
        result = figure_5b(SMALL, levels=(2, 3))
        for bpr, bps in zip(result.y_values("BPR"), result.y_values("BPS")):
            assert bpr <= bps * 1.02

    def test_tree_sizes(self):
        assert tree_size_for_level(1) == 3
        assert tree_size_for_level(4) == 31
        assert tree_size_for_level(5) == 48  # the paper's 48-node cap
        with pytest.raises(Exception):
            tree_size_for_level(0)


class TestFigure5c:
    def test_cs_degrades_along_the_line(self):
        result = figure_5c(SMALL, sizes=(2, 8))
        cs = result.y_values("CS")
        bpr = result.y_values("BPR")
        assert cs[0] < bpr[0]  # very small network: CS is fine
        assert cs[-1] > bpr[-1]  # longer chain: BPR wins


class TestFigures6And7:
    def test_curves_cover_all_responders(self, fig67):
        rate, quantity = fig67
        for scheme in ("CS", "BPS", "BPR"):
            ranks = [x for x, _ in rate.series_named(scheme)]
            assert ranks == list(range(1, 10))  # 9 responding nodes

    def test_response_times_monotone_in_rank(self, fig67):
        rate, _ = fig67
        for scheme in ("CS", "BPS", "BPR"):
            times = rate.y_values(scheme)
            assert times == sorted(times)

    def test_bpr_finishes_no_later_than_bps(self, fig67):
        rate, _ = fig67
        assert rate.y_values("BPR")[-1] <= rate.y_values("BPS")[-1] * 1.02

    def test_quantity_reaches_total(self, fig67):
        _, quantity = fig67
        totals = {
            scheme: quantity.series_named(scheme)[-1][1]
            for scheme in ("CS", "BPS", "BPR")
        }
        # All schemes eventually deliver the same answers.
        assert len(set(totals.values())) == 1

    def test_cs_first_answer_is_fast(self, fig67):
        """CS returns the first few answers fastest (Figure 7's head)."""
        rate, _ = fig67
        assert rate.series_named("CS")[0][1] <= rate.series_named("BPS")[0][1]


class TestFigure8:
    def test_bp_beats_gnutella_after_reconfiguration(self):
        """At smoke scale the run-1 code-shipping overhead can exceed the
        relay savings; the all-runs win is checked at paper scale by
        the ``8a-wins`` claim of ``python -m repro verify``."""
        result = figure_8a(SMALL, node_count=12, holder_count=3)
        bp = result.y_values("BP")
        gnutella = result.y_values("Gnutella")
        assert bp[0] < gnutella[0] * 1.5
        for left, right in zip(bp[1:], gnutella[1:]):
            assert left < right

    def test_bp_improves_after_first_run(self):
        result = figure_8a(SMALL, node_count=12, holder_count=3)
        bp = result.y_values("BP")
        assert bp[0] > bp[1]
        assert bp[1] == pytest.approx(bp[-1], rel=0.3)

    def test_gnutella_flat_across_runs(self):
        result = figure_8a(SMALL, node_count=12, holder_count=3)
        gnutella = result.y_values("Gnutella")
        assert max(gnutella) - min(gnutella) < 0.1 * max(gnutella)

    def test_more_peers_help_both(self):
        result = figure_8b(
            SMALL, node_count=12, peer_counts=(2, 8), holder_count=3
        )
        for scheme in ("BP", "Gnutella"):
            values = result.y_values(scheme)
            assert values[-1] < values[0]

    def test_bp_below_gnutella_at_every_peer_count(self):
        result = figure_8b(
            SMALL, node_count=12, peer_counts=(2, 8), holder_count=3
        )
        for bp, gnutella in zip(result.y_values("BP"), result.y_values("Gnutella")):
            assert bp < gnutella


class TestParams:
    def test_validation(self):
        with pytest.raises(Exception):
            FigureParams(objects_per_node=-1)
        with pytest.raises(Exception):
            FigureParams(queries=0)
