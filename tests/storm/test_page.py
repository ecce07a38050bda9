"""Tests for the slotted-page layout."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageError
from repro.storm.page import HEADER_SIZE, SLOT_SIZE, SlottedPage


def fresh_page(size=256):
    return SlottedPage.format(bytearray(size))


class TestBasicOperations:
    def test_insert_read_round_trip(self):
        page = fresh_page()
        slot = page.insert(b"hello")
        assert slot == 0
        assert page.read(slot) == b"hello"

    def test_multiple_records(self):
        page = fresh_page()
        slots = [page.insert(f"record-{i}".encode()) for i in range(5)]
        assert slots == [0, 1, 2, 3, 4]
        for i, slot in enumerate(slots):
            assert page.read(slot) == f"record-{i}".encode()

    def test_empty_record_allowed(self):
        page = fresh_page()
        slot = page.insert(b"")
        assert page.read(slot) == b""

    def test_read_dead_slot_raises(self):
        page = fresh_page()
        slot = page.insert(b"x")
        page.delete(slot)
        with pytest.raises(PageError):
            page.read(slot)

    def test_read_bad_slot_raises(self):
        page = fresh_page()
        with pytest.raises(PageError):
            page.read(0)

    def test_delete_twice_raises(self):
        page = fresh_page()
        slot = page.insert(b"x")
        page.delete(slot)
        with pytest.raises(PageError):
            page.delete(slot)

    def test_records_iterates_live_only(self):
        page = fresh_page()
        keep = page.insert(b"keep")
        kill = page.insert(b"kill")
        page.delete(kill)
        assert list(page.records()) == [(keep, b"keep")]

    def test_dead_slot_reused(self):
        page = fresh_page()
        first = page.insert(b"a")
        page.insert(b"b")
        page.delete(first)
        reused = page.insert(b"c")
        assert reused == first
        assert page.slot_count == 2


class TestCapacity:
    def test_page_fills_up(self):
        page = fresh_page(128)
        inserted = 0
        while page.insert(b"0123456789") is not None:
            inserted += 1
        expected = (128 - HEADER_SIZE) // (10 + SLOT_SIZE)
        assert inserted == expected

    def test_compaction_reclaims_deleted_space(self):
        page = fresh_page(128)
        slots = []
        while True:
            slot = page.insert(b"0123456789")
            if slot is None:
                break
            slots.append(slot)
        # Free every other record, then insert one that needs compaction.
        for slot in slots[::2]:
            page.delete(slot)
        big = b"x" * 15
        assert page.insert(big) is not None

    def test_record_too_large_for_u16(self):
        page = SlottedPage.format(bytearray(0xFFFF))
        with pytest.raises(PageError):
            page.insert(b"x" * 0x10000)

    def test_tiny_page_rejected(self):
        with pytest.raises(PageError):
            SlottedPage(bytearray(4))

    def test_oversized_page_rejected(self):
        with pytest.raises(PageError):
            SlottedPage(bytearray(0x10000))

    def test_free_space_accounting(self):
        page = fresh_page(256)
        initial = page.free_space
        page.insert(b"ten bytes!")
        assert page.free_space == initial - 10 - SLOT_SIZE

    def test_has_room_for(self):
        page = fresh_page(128)
        assert page.insert(b"x" * 1000) is None
        assert page.insert(b"x" * 50) is not None


class TestCompaction:
    def test_compact_preserves_live_records_and_slots(self):
        page = fresh_page(512)
        slots = {page.insert(f"value-{i}".encode()): f"value-{i}".encode()
                 for i in range(8)}
        dead = list(slots)[3]
        page.delete(dead)
        del slots[dead]
        page.compact()
        for slot, expected in slots.items():
            assert page.read(slot) == expected

    def test_compact_restores_contiguous_space(self):
        page = fresh_page(256)
        a = page.insert(b"a" * 40)
        page.insert(b"b" * 40)
        page.delete(a)
        before = page.contiguous_free_space
        page.compact()
        assert page.contiguous_free_space == before + 40


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(st.sampled_from(["insert", "delete"]), st.binary(max_size=40)),
        max_size=60,
    )
)
def test_page_model_property(operations):
    """The page behaves like a dict {slot: record} under insert/delete."""
    page = fresh_page(1024)
    model: dict[int, bytes] = {}
    for action, record in operations:
        if action == "insert":
            slot = page.insert(record)
            if slot is not None:
                assert slot not in model
                model[slot] = record
        elif model:
            victim = sorted(model)[0]
            page.delete(victim)
            del model[victim]
    assert dict(page.records()) == model
    for slot, expected in model.items():
        assert page.read(slot) == expected
    # One directory walk reports what the separate properties add up to.
    free = 1024 - HEADER_SIZE - SLOT_SIZE * page.slot_count - page.live_bytes
    assert page.summary() == (free, len(model))
    assert page.free_space == free
