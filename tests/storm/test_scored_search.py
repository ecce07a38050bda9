"""Scored search, and the index-vs-scan consistency it depends on.

The in-network top-k merge (PR 8) relies on every host producing
identically-ordered, identically-scored hit lists whichever search path
it takes: ``search``/``scored_search`` walk the keyword index,
``search_scan``/``scored_search_scan`` walk the heap.  This battery
pins both the TF scoring model and the regression that
``StorM.search`` now visits postings in heap order
(:meth:`KeywordIndex.lookup_ordered`), so index-backed and scan-backed
results agree on *order*, not just set membership — over bulk-loaded,
deleted-hole, and template-cloned stores alike.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StormError
from repro.storm import StorM
from repro.storm.template import StoreTemplate


def _populated(count=30):
    """A store with a score gradient and duplicate-tag objects."""
    store = StorM()
    items = []
    for i in range(count):
        # Vary the tag mix: pure matches, buried matches, repeated
        # tags (TF > 1/len from duplicates), and non-matches.
        if i % 5 == 0:
            keywords = ["jazz"]
        elif i % 5 == 1:
            keywords = ["jazz"] + [f"filler{j}" for j in range(1 + i % 4)]
        elif i % 5 == 2:
            keywords = ["jazz", "jazz", "other"]
        elif i % 5 == 3:
            keywords = ["rock"]
        else:
            keywords = ["jazz", "rock"]
        items.append((keywords, bytes([i % 250]) * (10 + i)))
    store.put_many(items)
    return store


def _punch_holes(store):
    """Delete a third of the records, including some matches."""
    rids = [rid for rid, _obj in store.scan()]
    for rid in rids[::3]:
        store.delete(rid)
    return store


def _clone(store):
    return StoreTemplate.from_store(store).instantiate()


STORES = {
    "bulk-loaded": lambda: _populated(),
    "deleted-holes": lambda: _punch_holes(_populated()),
    "template-clone": lambda: _clone(_populated()),
    "template-clone-with-holes": lambda: _punch_holes(_clone(_populated())),
}


@pytest.fixture(params=sorted(STORES))
def store(request):
    return STORES[request.param]()


class TestSearchConsistency:
    def test_search_and_scan_same_sets_and_order(self, store):
        indexed = store.search("jazz")
        scanned = store.search_scan("jazz")
        assert indexed.matches == scanned.matches  # order included

    def test_scored_paths_identical(self, store):
        indexed = store.scored_search("jazz")
        scanned = store.scored_search_scan("jazz")
        assert indexed.matches == scanned.matches
        assert indexed.scores == scanned.scores
        assert indexed.truncated == scanned.truncated == 0

    def test_scored_paths_identical_truncated(self, store):
        for k in (1, 3, 7):
            indexed = store.scored_search("jazz", k)
            scanned = store.scored_search_scan("jazz", k)
            assert indexed.matches == scanned.matches
            assert indexed.truncated == scanned.truncated
            assert indexed.match_count <= k

    def test_scored_matches_are_the_search_matches(self, store):
        plain = store.search("jazz")
        scored = store.scored_search("jazz")
        assert [(rid, obj) for _s, rid, obj in scored.matches] != [] or not plain.matches
        assert {(rid, obj.payload) for _s, rid, obj in scored.matches} == {
            (rid, obj.payload) for rid, obj in plain.matches
        }


class TestScoringModel:
    def test_scores_come_from_tags_not_postings(self):
        # The index dedupes postings per (keyword, rid); the score must
        # still see the repeated tag (TF 2/3, not 1/3).
        store = StorM()
        rid = store.put(["jazz", "jazz", "other"], b"x")
        (match,) = store.scored_search("jazz").matches
        assert match[0] == pytest.approx(2 / 3)
        assert match[1] == rid

    def test_pure_match_scores_one(self):
        store = StorM()
        store.put(["jazz"], b"x")
        assert store.scored_search("jazz").scores == [1.0]

    def test_normalized_keyword_scoring(self):
        store = StorM()
        store.put(["  JAZZ  "], b"x")
        assert store.scored_search("jazz").scores == [1.0]
        assert store.scored_search_scan("JAZZ").scores == [1.0]

    def test_no_match_empty(self):
        store = StorM()
        store.put(["rock"], b"x")
        result = store.scored_search("jazz")
        assert result.matches == [] and result.truncated == 0

    def test_order_best_first_heap_tiebreak(self):
        store = StorM()
        a = store.put(["jazz", "pad"], b"half-a")  # 0.5
        b = store.put(["jazz"], b"full")  # 1.0
        c = store.put(["jazz", "pad"], b"half-c")  # 0.5
        result = store.scored_search("jazz")
        assert [rid for _s, rid, _o in result.matches] == [b, a, c]
        assert result.scores == [1.0, 0.5, 0.5]

    def test_truncation_counts_cut_matches(self):
        store = StorM()
        for i in range(6):
            store.put(["jazz"] + ["pad"] * i, bytes([i]))
        result = store.scored_search("jazz", 2)
        assert result.match_count == 2
        assert result.truncated == 4
        assert result.objects_examined == 6

    def test_bad_k_rejected(self):
        store = StorM()
        for method in (store.scored_search, store.scored_search_scan):
            with pytest.raises(StormError):
                method("jazz", 0)
            with pytest.raises(StormError):
                method("jazz", -3)


class TestScoredSearchProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        tag_picks=st.lists(
            st.lists(st.sampled_from(["jazz", "rock", "pop", "pad"]), min_size=1, max_size=5),
            min_size=0,
            max_size=25,
        ),
        deletes=st.sets(st.integers(min_value=0, max_value=24)),
        k=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    )
    def test_paths_agree_under_arbitrary_stores(self, tag_picks, deletes, k):
        store = StorM()
        rids = store.put_many(
            [(tags, bytes([i]) * 4) for i, tags in enumerate(tag_picks)]
        )
        for i in sorted(deletes):
            if i < len(rids):
                store.delete(rids[i])
        indexed = store.scored_search("jazz", k)
        scanned = store.scored_search_scan("jazz", k)
        assert indexed.matches == scanned.matches
        assert indexed.truncated == scanned.truncated
        # scored results are exactly the plain search results, re-ranked
        plain = {rid for rid, _obj in store.search("jazz").matches}
        full = store.scored_search("jazz")
        assert {rid for _s, rid, _o in full.matches} == plain
