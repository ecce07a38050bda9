"""Initiator result cache: bounded LRU with invalidation coherence."""

import pytest

from repro.errors import ReplicationError
from repro.replication.cache import ResultCache


def answers(tag: str) -> tuple:
    # The cache never inspects its values; any opaque tuple works.
    return (f"answer-{tag}",)


class TestResultCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ReplicationError, match="capacity"):
            ResultCache(0)

    def test_miss_then_hit(self):
        cache = ResultCache(2)
        assert cache.get("music") is None
        cache.put("music", answers("music"))
        assert cache.get("music") == answers("music")
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_evicts_the_coldest_entry(self):
        cache = ResultCache(2)
        cache.put("a", answers("a"))
        cache.put("b", answers("b"))
        assert cache.get("a") is not None  # refresh "a"; "b" is now LRU
        cache.put("c", answers("c"))
        assert cache.evictions == 1
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_put_replaces_in_place_without_eviction(self):
        cache = ResultCache(1)
        cache.put("a", answers("old"))
        cache.put("a", answers("new"))
        assert cache.evictions == 0
        assert cache.get("a") == answers("new")

    def test_invalidate_drops_matching_entries_only(self):
        cache = ResultCache(4)
        cache.put("a", answers("a"))
        cache.put("b", answers("b"))
        dropped = cache.invalidate_keywords(("a", "zzz"))
        assert dropped == 1
        assert cache.invalidations == 1
        assert "a" not in cache
        assert "b" in cache

    def test_invalidated_entry_misses_afterwards(self):
        cache = ResultCache(2)
        cache.put("a", answers("a"))
        cache.invalidate_keywords(("a",))
        assert cache.get("a") is None

    def test_len(self):
        cache = ResultCache(3)
        cache.put("a", answers("a"))
        cache.put("b", answers("b"))
        assert len(cache) == 2
        assert "a" in cache
