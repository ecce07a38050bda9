"""Tests for the buffer manager."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BufferError_, BufferFullError, PageError
from repro.storm.buffer import AccessStats, BufferManager
from repro.storm.disk import InMemoryDisk
from repro.storm.replacement import LruStrategy, MruStrategy


def make_buffer(pool_size=3, page_size=128, strategy=None):
    disk = InMemoryDisk(page_size=page_size)
    return disk, BufferManager(disk, pool_size=pool_size, strategy=strategy)


class TestPinning:
    def test_new_page_read_back(self):
        _, buffer = make_buffer()
        page_id, data = buffer.new_page()
        data[0] = 0x42
        buffer.mark_dirty(page_id)
        buffer.unpin(page_id)
        assert buffer.pin(page_id)[0] == 0x42
        buffer.unpin(page_id)

    def test_hit_does_not_touch_disk(self):
        _, buffer = make_buffer()
        page_id, _ = buffer.new_page()
        buffer.unpin(page_id)
        reads_before = buffer.stats.physical_reads
        with buffer.pinned(page_id):
            pass
        assert buffer.stats.physical_reads == reads_before
        assert buffer.stats.hits >= 1

    def test_pin_counts_nest(self):
        _, buffer = make_buffer()
        page_id, _ = buffer.new_page()
        buffer.pin(page_id)
        assert buffer.pin_count(page_id) == 2
        buffer.unpin(page_id)
        buffer.unpin(page_id)
        assert buffer.pin_count(page_id) == 0

    def test_unpin_unpinned_raises(self):
        _, buffer = make_buffer()
        page_id, _ = buffer.new_page()
        buffer.unpin(page_id)
        with pytest.raises(BufferError_):
            buffer.unpin(page_id)

    def test_failed_pin_changes_nothing(self):
        """Pinning a page the disk does not have takes no frame, evicts
        no victim, counts no access and leaves the pool usable."""
        strategy = LruStrategy()
        _, buffer = make_buffer(pool_size=2, strategy=strategy)
        first, data = buffer.new_page()
        data[0] = 0x42
        buffer.mark_dirty(first)
        buffer.unpin(first)
        buffer.unpin(buffer.new_page()[0])
        stats = buffer.stats.snapshot()
        for _ in range(2):
            with pytest.raises(PageError):
                buffer.pin(99)
        assert buffer.stats == stats
        assert buffer.resident_pages == {0, 1}
        assert buffer.pin(first)[0] == 0x42  # still resident, still dirty
        buffer.unpin(first)
        buffer.pin(1)
        buffer.pin(first)

    def test_unpin_nonresident_raises(self):
        _, buffer = make_buffer()
        with pytest.raises(PageError):
            buffer.unpin(99)

    def test_mark_dirty_requires_pin(self):
        _, buffer = make_buffer()
        page_id, _ = buffer.new_page()
        buffer.unpin(page_id)
        with pytest.raises(BufferError_):
            buffer.mark_dirty(page_id)


class TestEviction:
    def test_dirty_page_written_back_on_eviction(self):
        disk, buffer = make_buffer(pool_size=1)
        first, data = buffer.new_page()
        data[0] = 0x11
        buffer.mark_dirty(first)
        buffer.unpin(first)
        second, _ = buffer.new_page()  # evicts `first`
        buffer.unpin(second)
        assert first not in buffer.resident_pages
        assert disk.read_page(first)[0] == 0x11

    def test_clean_page_not_written_back(self):
        _, buffer = make_buffer(pool_size=1)
        first, _ = buffer.new_page()
        buffer.unpin(first)
        buffer.flush_all()
        writes_after_flush = buffer.stats.physical_writes
        second, _ = buffer.new_page()
        buffer.unpin(second)
        # Evicting the clean `first` page must not rewrite it.
        assert buffer.stats.physical_writes == writes_after_flush

    def test_pinned_pages_never_evicted(self):
        _, buffer = make_buffer(pool_size=2)
        a, _ = buffer.new_page()
        b, _ = buffer.new_page()
        with pytest.raises(BufferFullError):
            buffer.new_page()
        assert a in buffer.resident_pages
        assert b in buffer.resident_pages

    def test_lru_eviction_order(self):
        _, buffer = make_buffer(pool_size=2, strategy=LruStrategy())
        a, _ = buffer.new_page()
        buffer.unpin(a)
        b, _ = buffer.new_page()
        buffer.unpin(b)
        with buffer.pinned(a):
            pass  # touch a: b becomes LRU
        c, _ = buffer.new_page()
        buffer.unpin(c)
        assert a in buffer.resident_pages
        assert b not in buffer.resident_pages

    def test_mru_eviction_order(self):
        _, buffer = make_buffer(pool_size=2, strategy=MruStrategy())
        a, _ = buffer.new_page()
        buffer.unpin(a)
        b, _ = buffer.new_page()
        buffer.unpin(b)
        c, _ = buffer.new_page()  # MRU evicts b
        buffer.unpin(c)
        assert a in buffer.resident_pages
        assert b not in buffer.resident_pages

    def test_stats_track_misses_and_hits(self):
        _, buffer = make_buffer(pool_size=1)
        a, _ = buffer.new_page()
        buffer.unpin(a)
        b, _ = buffer.new_page()
        buffer.unpin(b)
        with buffer.pinned(a):  # miss: a was evicted
            pass
        with buffer.pinned(a):  # hit
            pass
        assert buffer.stats.physical_reads == 1  # only the re-read of a
        assert buffer.stats.hits == buffer.stats.logical_reads - 1


class TestStats:
    def test_snapshot_and_since(self):
        stats = AccessStats(logical_reads=10, physical_reads=4, physical_writes=2)
        earlier = AccessStats(logical_reads=6, physical_reads=1, physical_writes=2)
        delta = stats.since(earlier)
        assert delta.logical_reads == 4
        assert delta.physical_reads == 3
        assert delta.physical_writes == 0
        assert delta.hits == 1

    def test_hit_ratio(self):
        stats = AccessStats(logical_reads=10, physical_reads=5)
        assert stats.hit_ratio == 0.5
        assert AccessStats().hit_ratio == 0.0

    def test_pool_size_validation(self):
        disk = InMemoryDisk()
        with pytest.raises(BufferError_):
            BufferManager(disk, pool_size=0)


@settings(max_examples=30, deadline=None)
@given(
    pool_size=st.integers(min_value=1, max_value=4),
    accesses=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=80),
)
def test_buffer_is_transparent_cache(pool_size, accesses):
    """Reads through the buffer always equal direct disk contents."""
    disk = InMemoryDisk(page_size=128)
    buffer = BufferManager(disk, pool_size=pool_size)
    # Seed ten pages with distinct contents.
    for i in range(10):
        page_id, data = buffer.new_page()
        data[0] = i
        buffer.mark_dirty(page_id)
        buffer.unpin(page_id)
    for page_id in accesses:
        with buffer.pinned(page_id) as data:
            assert data[0] == page_id
    assert len(buffer.resident_pages) <= pool_size
