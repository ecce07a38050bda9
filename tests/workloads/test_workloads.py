"""Tests for workload generation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads import (
    AnswerPlacement,
    KeywordCorpus,
    QueryWorkload,
    generate_objects,
)


class TestKeywordCorpus:
    def test_deterministic_and_wrapping(self):
        corpus = KeywordCorpus(size=10)
        assert corpus.keyword(3) == corpus.keyword(13)
        assert len(set(corpus.keywords())) == 10

    def test_invalid_size(self):
        with pytest.raises(WorkloadError):
            KeywordCorpus(size=0)


class TestGenerateObjects:
    def test_paper_workload_shape(self):
        """1000 objects, 1KB each, unique across nodes."""
        objects = generate_objects(node_index=3, count=1000, size=1024)
        assert len(objects) == 1000
        assert all(len(spec.payload) == 1024 for spec in objects)
        assert len({spec.payload for spec in objects}) == 1000

    def test_no_replication_across_nodes(self):
        node_a = generate_objects(0, count=50)
        node_b = generate_objects(1, count=50)
        payloads_a = {spec.payload for spec in node_a}
        payloads_b = {spec.payload for spec in node_b}
        assert payloads_a.isdisjoint(payloads_b)

    def test_deterministic(self):
        assert generate_objects(2, count=20) == generate_objects(2, count=20)

    def test_keywords_cycle_through_corpus(self):
        corpus = KeywordCorpus(size=10)
        objects = generate_objects(0, count=100, corpus=corpus)
        first_keywords = [spec.keywords[0] for spec in objects]
        for keyword in corpus.keywords():
            assert first_keywords.count(keyword) == 10

    def test_size_too_small_for_header(self):
        with pytest.raises(WorkloadError):
            generate_objects(0, count=1, size=4)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            generate_objects(0, count=-1)
        with pytest.raises(WorkloadError):
            generate_objects(0, count=1, size=0)


class TestAnswerPlacement:
    def test_holders_exclude_base(self):
        placement = AnswerPlacement(node_count=10, holder_count=3)
        assert 0 not in placement.holders
        assert len(placement.holders) == 3

    def test_deterministic(self):
        a = AnswerPlacement(node_count=10, holder_count=3, seed=7)
        b = AnswerPlacement(node_count=10, holder_count=3, seed=7)
        assert a.holders == b.holders

    def test_objects_only_at_holders(self):
        placement = AnswerPlacement(node_count=8, holder_count=2, answers_per_holder=4)
        total = 0
        for i in range(8):
            payloads = placement.objects_for(i)
            if placement.holds_answers(i):
                assert len(payloads) == 4
                total += len(payloads)
            else:
                assert payloads == []
        assert total == placement.total_answers == 8

    def test_object_sizes(self):
        placement = AnswerPlacement(node_count=5, holder_count=1)
        holder = next(iter(placement.holders))
        assert all(len(p) == 1024 for p in placement.objects_for(holder))

    def test_impossible_placement(self):
        with pytest.raises(WorkloadError):
            AnswerPlacement(node_count=3, holder_count=5)

    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=0, max_value=20),
    )
    def test_holder_count_always_respected(self, nodes, seed):
        holder_count = max(1, (nodes - 1) // 2)
        placement = AnswerPlacement(
            node_count=nodes, holder_count=holder_count, seed=seed
        )
        assert len(placement.holders) == holder_count
        assert all(0 < h < nodes for h in placement.holders)


class TestQueryWorkload:
    def test_uniform_deterministic(self):
        corpus = KeywordCorpus(size=20)
        a = QueryWorkload(corpus, seed=1).keywords(50)
        b = QueryWorkload(corpus, seed=1).keywords(50)
        assert a == b

    def test_zipf_concentrates_on_head(self):
        corpus = KeywordCorpus(size=50)
        skewed = QueryWorkload(corpus, skew=1.5, seed=0).keywords(500)
        head = corpus.keyword(0)
        tail = corpus.keyword(49)
        assert skewed.count(head) > skewed.count(tail)
        assert skewed.count(head) >= 25

    def test_keywords_come_from_corpus(self):
        corpus = KeywordCorpus(size=5)
        vocabulary = set(corpus.keywords())
        for skew in (0.0, 1.0):
            chosen = QueryWorkload(corpus, skew=skew, seed=3).keywords(40)
            assert set(chosen) <= vocabulary

    def test_validation(self):
        corpus = KeywordCorpus()
        with pytest.raises(WorkloadError):
            QueryWorkload(corpus, skew=-1.0)
        with pytest.raises(WorkloadError):
            QueryWorkload(corpus).keywords(-1)
