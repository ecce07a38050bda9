"""Tests for the heap file."""

import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageError, RecordNotFound
from repro.storm.buffer import BufferManager
from repro.storm.disk import PAGE_SIZE, InMemoryDisk
from repro.storm.heapfile import HeapFile, RecordId


#: A record of about 40 % of a page: two fit on one, three do not.
SIZEABLE = PAGE_SIZE * 2 // 5


def make_heap(pool_size=4):
    disk = InMemoryDisk()
    return HeapFile(BufferManager(disk, pool_size=pool_size))


class TestHeapFile:
    def test_insert_read_round_trip(self):
        heap = make_heap()
        rid = heap.insert(b"record one")
        assert heap.read(rid) == b"record one"
        assert heap.record_count == 1

    def test_records_span_multiple_pages(self):
        heap = make_heap()
        rids = [heap.insert(bytes([i]) * SIZEABLE) for i in range(10)]
        assert heap.page_count > 1
        for i, rid in enumerate(rids):
            assert heap.read(rid) == bytes([i]) * SIZEABLE

    def test_delete_then_read_raises(self):
        heap = make_heap()
        rid = heap.insert(b"x")
        heap.delete(rid)
        with pytest.raises(RecordNotFound):
            heap.read(rid)
        assert heap.record_count == 0

    def test_delete_missing_raises(self):
        heap = make_heap()
        with pytest.raises(RecordNotFound):
            heap.delete(RecordId(0, 0))
        heap.insert(b"x")
        with pytest.raises(RecordNotFound):
            heap.delete(RecordId(0, 99))

    def test_deleted_space_is_reused(self):
        heap = make_heap()
        rids = [heap.insert(b"a" * SIZEABLE) for _ in range(4)]
        pages_before = heap.page_count
        for rid in rids:
            heap.delete(rid)
        for _ in range(4):
            heap.insert(b"b" * SIZEABLE)
        assert heap.page_count == pages_before

    def test_scan_yields_all_live_records(self):
        heap = make_heap()
        keep = {heap.insert(f"keep-{i}".encode()): f"keep-{i}".encode()
                for i in range(5)}
        victim = heap.insert(b"victim")
        heap.delete(victim)
        assert dict(heap.scan()) == keep

    def test_exists(self):
        heap = make_heap()
        rid = heap.insert(b"x")
        assert heap.read(rid) == b"x"
        heap.delete(rid)
        with pytest.raises(RecordNotFound):
            heap.read(rid)
        with pytest.raises(RecordNotFound):
            heap.read(RecordId(99, 0))

    def test_annotations_resolve(self):
        assert typing.get_type_hints(HeapFile.insert_many)["return"] == list[RecordId]

    def test_oversized_record_rejected(self):
        heap = make_heap()
        with pytest.raises(PageError):
            heap.insert(b"x" * PAGE_SIZE)

    def test_reopen_rebuilds_state(self):
        disk = InMemoryDisk()
        buffer = BufferManager(disk, pool_size=4)
        heap = HeapFile(buffer)
        rids = [heap.insert(f"persisted-{i}".encode() * 150) for i in range(6)]
        heap.delete(rids[2])
        buffer.flush_all()

        reopened = HeapFile(BufferManager(disk, pool_size=4))
        assert reopened.record_count == 5
        assert reopened.read(rids[0]) == b"persisted-0" * 150
        with pytest.raises(RecordNotFound):
            reopened.read(rids[2])
        # Free-space map was rebuilt: inserts go to existing pages.
        pages_before = reopened.page_count
        reopened.insert(b"new")
        assert reopened.page_count == pages_before


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.binary(min_size=1, max_size=PAGE_SIZE // 4)),
        min_size=1,
        max_size=60,
    )
)
def test_heapfile_model_property(operations):
    """Heap file behaves like a dict {rid: record} under insert/delete."""
    heap = make_heap(pool_size=2)
    model: dict[RecordId, bytes] = {}
    for is_insert, record in operations:
        if is_insert or not model:
            rid = heap.insert(record)
            assert rid not in model
            model[rid] = record
        else:
            victim = sorted(model, key=lambda r: (r.page_id, r.slot))[0]
            heap.delete(victim)
            del model[victim]
    assert dict(heap.scan()) == model
    assert heap.record_count == len(model)
