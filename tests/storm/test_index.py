"""Tests for the keyword inverted index."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storm.heapfile import RecordId
from repro.storm.index import KeywordIndex


def rid(n):
    return RecordId(n // 10, n % 10)


class TestKeywordIndex:
    def test_add_lookup(self):
        index = KeywordIndex()
        index.add(rid(1), ["jazz", "bebop"])
        index.add(rid(2), ["jazz"])
        assert index.lookup("jazz") == {rid(1), rid(2)}
        assert index.lookup("bebop") == {rid(1)}
        assert index.lookup("rock") == frozenset()

    def test_lookup_normalizes(self):
        index = KeywordIndex()
        index.add(rid(1), ["Jazz"])
        assert index.lookup("  JAZZ ") == {rid(1)}

    def test_remove(self):
        index = KeywordIndex()
        index.add(rid(1), ["jazz"])
        index.add(rid(2), ["jazz"])
        index.remove(rid(1), ["jazz"])
        assert index.lookup("jazz") == {rid(2)}

    def test_remove_last_posting_drops_keyword(self):
        index = KeywordIndex()
        index.add(rid(1), ["solo"])
        index.remove(rid(1), ["solo"])
        assert index.keyword_count == 0

    def test_remove_missing_is_noop(self):
        index = KeywordIndex()
        index.remove(rid(1), ["ghost"])
        assert index.keyword_count == 0

    def test_rebuild(self):
        index = KeywordIndex()
        index.add(rid(9), ["stale"])
        index.rebuild([(rid(1), ["fresh"]), (rid(2), ["fresh", "new"])])
        assert index.lookup("stale") == frozenset()
        assert index.lookup("fresh") == {rid(1), rid(2)}
        assert index.lookup("new") == {rid(2)}

    def test_keywords_iteration(self):
        index = KeywordIndex()
        index.add(rid(1), ["a", "b"])
        assert sorted(index.keywords()) == ["a", "b"]


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),
            st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=3),
        ),
        max_size=40,
    )
)
def test_index_agrees_with_naive_scan(entries):
    """Index lookups must equal a brute-force scan of the entries."""
    index = KeywordIndex()
    for n, keywords in entries:
        index.add(rid(n), keywords)
    for keyword in ["a", "b", "c", "d"]:
        expected = {rid(n) for n, keywords in entries if keyword in keywords}
        assert index.lookup(keyword) == expected
