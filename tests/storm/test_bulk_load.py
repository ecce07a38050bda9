"""Bulk-load fast path: bit-identical to the per-record reference.

``StorM.put_many`` / ``HeapFile.insert_many`` / ``SlottedPage.insert_many``
must produce exactly what a per-record loop would: same record ids, same
page bytes, same free-space map, same index postings, same buffer
statistics.  These tests drive both paths side by side and compare
everything observable.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageError
from repro.storm.disk import InMemoryDisk
from repro.storm.page import SlottedPage
from repro.storm.store import StorM


def _mirror_stores():
    return StorM(disk=InMemoryDisk()), StorM(disk=InMemoryDisk())


def _items(seed, count, sizes=(1, 17, 300, 1024, 2000, 4000)):
    rng = random.Random(seed)
    return [
        (
            tuple(f"kw{rng.randrange(20):03d}" for _ in range(rng.randrange(1, 4))),
            bytes([rng.randrange(256)]) * rng.choice(sizes),
        )
        for _ in range(count)
    ]


def _put_loop(store, items):
    return [store.put(keywords, payload) for keywords, payload in items]


def _pages(store):
    return [
        bytes(store.disk.read_page(page_id))
        for page_id in range(store.disk.num_pages)
    ]


def _assert_equivalent(reference, bulk):
    assert _pages(reference) == _pages(bulk)
    assert reference.index.snapshot() == bulk.index.snapshot()
    assert dict(reference.heap._free_space.items()) == dict(
        bulk.heap._free_space.items()
    )
    assert reference.count == bulk.count


class TestBulkEquivalence:
    def test_rids_pages_index_identical(self):
        items = _items(seed=1, count=300)
        reference, bulk = _mirror_stores()
        assert _put_loop(reference, items) == bulk.put_many(items)
        _assert_equivalent(reference, bulk)

    def test_search_results_and_io_identical(self):
        items = _items(seed=2, count=200)
        reference, bulk = _mirror_stores()
        _put_loop(reference, items)
        bulk.put_many(items)
        for keyword in ("kw000", "kw007", "kw019", "missing"):
            a = reference.search_scan(keyword)
            b = bulk.search_scan(keyword)
            assert [rid for rid, _ in a.matches] == [rid for rid, _ in b.matches]
            assert a.io == b.io
            a = reference.search(keyword)
            b = bulk.search(keyword)
            assert [rid for rid, _ in a.matches] == [rid for rid, _ in b.matches]
            assert a.io == b.io

    def test_buffer_stats_identical_during_population(self):
        items = _items(seed=3, count=250)
        reference, bulk = _mirror_stores()
        _put_loop(reference, items)
        bulk.put_many(items)
        assert reference.stats.logical_reads == bulk.stats.logical_reads
        assert reference.stats.physical_reads == bulk.stats.physical_reads

    def test_bulk_into_deletion_holes(self):
        items = _items(seed=4, count=150)
        reference, bulk = _mirror_stores()
        rids = _put_loop(reference, items)
        bulk.put_many(items)
        for rid in rids[::5]:
            reference.delete(rid)
            bulk.delete(rid)
        more = _items(seed=5, count=80)
        assert _put_loop(reference, more) == bulk.put_many(more)
        _assert_equivalent(reference, bulk)

    def test_interleaved_batches(self):
        reference, bulk = _mirror_stores()
        for seed in range(6, 10):
            batch = _items(seed=seed, count=40)
            assert _put_loop(reference, batch) == bulk.put_many(batch)
        _assert_equivalent(reference, bulk)


class TestEdges:
    def test_empty_batch(self):
        store = StorM()
        assert store.put_many([]) == []
        assert store.count == 0

    def test_oversized_record_raises_keeping_earlier_inserts(self):
        reference, bulk = _mirror_stores()
        too_big = bytes(reference.heap.max_record_size + 1)
        items = [(("a",), b"x" * 100), (("b",), too_big), (("c",), b"y" * 100)]
        with pytest.raises(PageError):
            _put_loop(reference, items)
        with pytest.raises(PageError):
            bulk.put_many(items)
        # Both paths keep the inserts made before the failing record.
        assert reference.count == bulk.count == 1
        _assert_equivalent(reference, bulk)

    def test_max_size_records_one_per_page(self):
        reference, bulk = _mirror_stores()
        # encode() adds a keyword/payload framing overhead; aim close to
        # the page capacity so every record monopolizes its page.
        items = [((f"k{i}",), bytes(3900)) for i in range(5)]
        assert _put_loop(reference, items) == bulk.put_many(items)
        assert bulk.disk.num_pages == 5
        _assert_equivalent(reference, bulk)

    def test_exact_page_boundary_packing(self):
        # Records sized so each page fits an exact whole number; the run
        # must stop at the boundary and open a fresh page like the
        # reference does.
        reference, bulk = _mirror_stores()
        items = [((f"k{i % 3}",), bytes(500)) for i in range(40)]
        assert _put_loop(reference, items) == bulk.put_many(items)
        _assert_equivalent(reference, bulk)

    def test_shrinking_sizes_end_runs(self):
        # A strictly decreasing size sequence forces every record to end
        # its run (no follower is >= the anchor), exercising the
        # settle-and-requery path on each record.
        reference, bulk = _mirror_stores()
        items = [((f"k{i}",), bytes(2000 - i * 40)) for i in range(40)]
        assert _put_loop(reference, items) == bulk.put_many(items)
        _assert_equivalent(reference, bulk)

    def test_growing_sizes_return_to_earlier_pages(self):
        # Small records leave room on early pages that later, larger
        # records must still skip exactly as first-fit would.
        reference, bulk = _mirror_stores()
        items = [((f"k{i % 5}",), bytes(50 + i * 60)) for i in range(50)]
        assert _put_loop(reference, items) == bulk.put_many(items)
        _assert_equivalent(reference, bulk)


class TestStaleEntryHeal:
    def test_failed_probe_heals_map_entry(self):
        store = StorM()
        store.put(("a",), bytes(3000))
        page_id = 0
        true_free = store.heap._free_space.get(page_id)
        # Force an overestimating (stale) entry, as a buggy caller or
        # future code path might leave behind.
        store.heap._free_space.set(page_id, 4000)
        store.put(("b",), bytes(2000))  # cannot fit in page 0
        assert store.heap._free_space.get(page_id) == true_free

    def test_healed_entry_not_reprobed(self):
        store = StorM()
        store.put(("a",), bytes(3000))
        store.heap._free_space.set(0, 4000)
        store.put(("b",), bytes(2000))
        # After healing, further inserts must not pin page 0 again.
        before = store.stats.logical_reads
        store.put(("c",), bytes(2000))
        after = store.stats.logical_reads
        assert after - before == 1  # only the page that receives the record

    def test_bulk_probe_heals_too(self):
        store = StorM()
        store.put_many([(("a",), bytes(3000))])
        true_free = store.heap._free_space.get(0)
        store.heap._free_space.set(0, 4000)
        store.put_many([(("b",), bytes(2000))])
        assert store.heap._free_space.get(0) == true_free


class TestPageLevel:
    def _fresh_page(self, size=1024):
        return SlottedPage.format(bytearray(size))

    def test_page_insert_many_matches_loop(self):
        for seed in range(5):
            rng = random.Random(seed)
            records = [
                bytes([rng.randrange(256)]) * rng.randrange(1, 200)
                for _ in range(30)
            ]
            a = self._fresh_page()
            b = self._fresh_page()
            loop_slots = []
            for record in records:
                slot = a.insert(record)
                if slot is None:
                    break
                loop_slots.append(slot)
            assert b.insert_many(records) == loop_slots
            assert bytes(a.data) == bytes(b.data)

    def test_page_insert_many_reuses_dead_slots_and_compacts(self):
        a = self._fresh_page()
        b = self._fresh_page()
        for page in (a, b):
            for i in range(4):
                page.insert(bytes([i]) * 200)
            page.delete(1)
            page.delete(3)
        records = [b"\xaa" * 150, b"\xbb" * 150, b"\xcc" * 100]
        loop_slots = [a.insert(record) for record in records]
        assert b.insert_many(records) == loop_slots
        assert bytes(a.data) == bytes(b.data)

    def test_page_insert_many_oversize_raises(self):
        page = self._fresh_page()
        page.insert(b"x" * 10)
        with pytest.raises(PageError):
            SlottedPage(bytearray(70000))  # guard: pages stay u16

    def test_page_insert_many_stops_at_first_misfit(self):
        page = self._fresh_page(256)
        records = [b"a" * 100, b"b" * 100, b"c" * 100]
        slots = page.insert_many(records)
        assert len(slots) == 2
        assert page.read(slots[0]) == records[0]
        assert page.read(slots[1]) == records[1]


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=3500), max_size=60),
    delete_every=st.integers(min_value=2, max_value=7),
    data=st.data(),
)
def test_property_bulk_matches_loop(sizes, delete_every, data):
    """Random sizes, with a delete phase, stay bit-identical."""
    items = [((f"k{i % 7}",), bytes(size)) for i, size in enumerate(sizes)]
    split = data.draw(st.integers(min_value=0, max_value=len(items)))
    reference, bulk = _mirror_stores()
    first, second = items[:split], items[split:]
    rids_a = _put_loop(reference, first)
    rids_b = bulk.put_many(first)
    assert rids_a == rids_b
    for rid in rids_a[::delete_every]:
        reference.delete(rid)
        bulk.delete(rid)
    assert _put_loop(reference, second) == bulk.put_many(second)
    _assert_equivalent(reference, bulk)


def test_a_record_that_fits_only_in_a_dead_slot_is_not_packed_into_the_run():
    # First fit asks the free-space map for ``len + SLOT_SIZE`` bytes, so
    # the per-record path sends the large last record to a later page even
    # though page 0 could take it in a dead slot; a bulk run opened on
    # page 0 by the small record before it must not carry it along.
    sizes = [0, 0, 0, 1441, 1110, 1458, 0, 0, 0, 462, 508, 418, 273, 131, 117]
    sizes += [0] * 9 + [2078]
    items = [((f"k{i % 7}",), bytes(size)) for i, size in enumerate(sizes)]
    reference, bulk = _mirror_stores()
    first, second = items[:23], items[23:]
    rids = _put_loop(reference, first)
    assert bulk.put_many(first) == rids
    for rid in rids[::2]:
        reference.delete(rid)
        bulk.delete(rid)
    assert _put_loop(reference, second) == bulk.put_many(second)
    _assert_equivalent(reference, bulk)
