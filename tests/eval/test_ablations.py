"""Smoke tests for the ablation experiments: the published shapes at the
smoke workload (``tests.support.SMOKE``)."""

from dataclasses import replace

import pytest

from repro.eval.ablations import (
    LINE_NODES,
    ablation_buffer_strategy,
    ablation_replication,
    ablation_result_mode,
    ablation_shipping,
    ablation_strategy,
    ablation_ttl,
)

from tests.support import SMOKE


class TestStrategyAblation:
    @pytest.fixture(scope="class")
    def result(self):
        # Three queries, so "runs 2+" is two runs after the first.
        return ablation_strategy(replace(SMOKE, queries=3))

    def test_all_strategies_present(self, result):
        assert set(result.series) == {"maxcount", "minhops", "random", "static"}

    def test_static_flat_once_classes_are_cached(self, result):
        # Run 1 pays code shipping everywhere (even static); runs 2+ of
        # a static network are indistinguishable.
        static = result.y_values("static")
        assert static[1] == pytest.approx(static[-1], rel=0.1)

    def test_maxcount_improves_after_first_run(self, result):
        maxcount = result.y_values("maxcount")
        assert maxcount[-1] < maxcount[0]

    def test_reconfigurable_beats_static_eventually(self, result):
        assert result.y_values("maxcount")[-1] < result.y_values("static")[-1]


class TestTtlAblation:
    def test_coverage_grows_with_ttl(self):
        result = ablation_ttl(SMOKE)
        responders = result.y_values("responders")
        assert responders == sorted(responders)
        assert responders[0] == 2  # ttl=2 reaches two hops on a line
        assert responders[-1] == LINE_NODES - 1  # full coverage

    def test_completion_grows_with_coverage(self):
        result = ablation_ttl(SMOKE)
        completions = result.y_values("completion (s)")
        assert completions[0] < completions[-1]


class TestResultModeAblation:
    def test_metadata_answers_no_slower_to_arrive(self):
        result = ablation_result_mode(SMOKE)
        direct = sum(result.y_values("direct"))
        metadata = sum(result.y_values("metadata"))
        assert metadata <= direct * 1.02


class TestReplicationAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return ablation_replication(SMOKE)

    def test_series_present(self, result):
        assert set(result.series) == {"first answer (s)", "completion (s)"}

    def test_more_replicas_faster_first_answer(self, result):
        first = result.y_values("first answer (s)")
        assert first[-1] <= first[0]

    def test_all_times_positive(self, result):
        for name in result.series:
            assert all(v > 0 for v in result.y_values(name))


class TestShippingAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return ablation_shipping(SMOKE)

    def test_cumulative_series_monotone(self, result):
        for name in result.series:
            values = result.y_values(name)
            assert values == sorted(values)

    def test_code_cheapest_first_query(self, result):
        assert result.y_values("always-code")[0] < result.y_values("always-data")[0]

    def test_data_amortizes(self, result):
        code = result.y_values("always-code")
        data = result.y_values("always-data")
        # The per-query increments shrink to ~0 once mirrored.
        data_tail_increment = data[-1] - data[-2]
        code_tail_increment = code[-1] - code[-2]
        assert data_tail_increment < code_tail_increment


class TestBufferAblation:
    @pytest.fixture(scope="class")
    def result(self):
        # Replacement only matters once a store outgrows the buffer
        # pool; at the published 1000 objects per node it does.
        return ablation_buffer_strategy(replace(SMOKE, objects_per_node=1000))

    def test_all_strategies_present(self, result):
        assert set(result.series) == {"lru", "mru", "fifo", "clock", "lru-k"}

    def test_mru_beats_lru_on_repeated_scans(self, result):
        """The classic sequential-flooding result."""
        lru_steady = result.y_values("lru")[-1]
        mru_steady = result.y_values("mru")[-1]
        assert mru_steady < lru_steady

    def test_scan_costs_positive_and_bounded(self, result):
        # Population already evicts pages differently per strategy, so
        # first-scan costs differ; all must stay within a sane envelope.
        for name in result.series:
            values = result.y_values(name)
            assert all(v > 0 for v in values)
            assert max(values) < 10 * min(values)
