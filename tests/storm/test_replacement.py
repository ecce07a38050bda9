"""Tests for buffer replacement strategies."""

import pytest

from repro.errors import BufferError_
from repro.storm.replacement import (
    ClockStrategy,
    FifoStrategy,
    LruKStrategy,
    LruStrategy,
    MruStrategy,
    make_strategy,
)


class TestLru:
    def test_evicts_least_recent(self):
        lru = LruStrategy()
        for frame in [0, 1, 2]:
            lru.on_page_loaded(frame)
        lru.on_page_accessed(0)
        assert lru.choose_victim([0, 1, 2]) == 1

    def test_restricted_candidates(self):
        lru = LruStrategy()
        for frame in [0, 1, 2]:
            lru.on_page_loaded(frame)
        assert lru.choose_victim([1, 2]) == 1

    def test_eviction_forgets_frame(self):
        lru = LruStrategy()
        lru.on_page_loaded(0)
        lru.on_page_loaded(1)
        lru.on_page_evicted(0)
        lru.on_page_loaded(0)  # reloaded - now newest
        assert lru.choose_victim([0, 1]) == 1


class TestMru:
    def test_evicts_most_recent(self):
        mru = MruStrategy()
        for frame in [0, 1, 2]:
            mru.on_page_loaded(frame)
        mru.on_page_accessed(0)
        assert mru.choose_victim([0, 1, 2]) == 0


class TestFifo:
    def test_ignores_accesses(self):
        fifo = FifoStrategy()
        for frame in [0, 1, 2]:
            fifo.on_page_loaded(frame)
        fifo.on_page_accessed(0)
        fifo.on_page_accessed(0)
        assert fifo.choose_victim([0, 1, 2]) == 0


class TestClock:
    def test_second_chance(self):
        clock = ClockStrategy()
        for frame in [0, 1, 2]:
            clock.on_page_loaded(frame)
        # All reference bits set: first sweep clears them, then frame 0 goes.
        assert clock.choose_victim([0, 1, 2]) == 0

    def test_recently_accessed_survives_one_sweep(self):
        clock = ClockStrategy()
        for frame in [0, 1]:
            clock.on_page_loaded(frame)
        victim = clock.choose_victim([0, 1])
        clock.on_page_evicted(victim)
        survivor = 1 - victim
        clock.on_page_accessed(survivor)
        clock.on_page_loaded(victim)
        # survivor was just referenced; the reloaded frame is also referenced,
        # so the hand clears bits then picks deterministically.
        second_victim = clock.choose_victim([0, 1])
        assert second_victim in (0, 1)

    def test_eviction_keeps_ring_consistent(self):
        clock = ClockStrategy()
        for frame in range(5):
            clock.on_page_loaded(frame)
        for _ in range(4):
            victim = clock.choose_victim(list(clock._referenced))
            clock.on_page_evicted(victim)
        assert len(clock._ring) == 1


class TestLruK:
    def test_prefers_frames_with_short_history(self):
        lruk = LruKStrategy()
        lruk.on_page_loaded(0)
        lruk.on_page_accessed(0)  # 0 has 2 accesses
        lruk.on_page_loaded(1)  # 1 has 1 access: infinite K-distance
        assert lruk.choose_victim([0, 1]) == 1

    def test_evicts_oldest_kth_access(self):
        lruk = LruKStrategy()
        for frame in [0, 1]:
            lruk.on_page_loaded(frame)
            lruk.on_page_accessed(frame)
        lruk.on_page_accessed(0)
        # Frame 0's accesses: t1,t2,t5 -> 2nd most recent t2.
        # Frame 1's accesses: t3,t4   -> 2nd most recent t3.
        # t2 is older, so LRU-2 evicts frame 0 despite its recent touch.
        assert lruk.choose_victim([0, 1]) == 0

    def test_eviction_clears_history(self):
        lruk = LruKStrategy()
        lruk.on_page_loaded(0)
        lruk.on_page_evicted(0)
        lruk.on_page_loaded(0)
        assert lruk.choose_victim([0]) == 0


class TestFactory:
    def test_all_names(self):
        for name in ["lru", "mru", "fifo", "clock", "lru-k"]:
            assert make_strategy(name).name in (name, "lru-k")

    def test_unknown_name(self):
        with pytest.raises(BufferError_, match="unknown strategy"):
            make_strategy("belady")

    def test_random_is_not_offered(self):
        with pytest.raises(BufferError_, match="unknown strategy"):
            make_strategy("random")
