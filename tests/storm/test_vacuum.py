"""Tests for heap-file vacuuming."""

from repro.storm import StorM
from repro.storm.buffer import BufferManager
from repro.storm.disk import InMemoryDisk
from repro.storm.heapfile import HeapFile


class TestVacuum:
    def test_reclaims_deleted_space(self):
        heap = HeapFile(BufferManager(InMemoryDisk(), pool_size=4))
        rids = [heap.insert(bytes([i]) * 640) for i in range(10)]
        for rid in rids[::2]:
            heap.delete(rid)
        reclaimed = heap.vacuum()
        assert reclaimed > 0
        # Survivors are intact, ids unchanged.
        for i, rid in enumerate(rids):
            if i % 2 == 1:
                assert heap.read(rid) == bytes([i]) * 640

    def test_vacuum_on_clean_heap_is_noop(self):
        heap = HeapFile(BufferManager(InMemoryDisk(), pool_size=4))
        for i in range(5):
            heap.insert(bytes([i]) * 480)
        assert heap.vacuum() == 0

    def test_vacuum_enables_large_insert(self):
        heap = HeapFile(BufferManager(InMemoryDisk(), pool_size=4))
        rids = [heap.insert(bytes([i]) * 640) for i in range(5)]
        pages_before = heap.page_count
        for rid in rids[1:4]:
            heap.delete(rid)
        heap.vacuum()
        heap.insert(b"z" * 1600)  # needs the coalesced hole
        assert heap.page_count == pages_before

    def test_storm_vacuum_facade(self):
        store = StorM(disk=InMemoryDisk())
        rids = [store.put(["k"], bytes([i]) * 800) for i in range(8)]
        for rid in rids[:4]:
            store.delete(rid)
        assert store.vacuum() > 0
        assert store.search("k").match_count == 4
