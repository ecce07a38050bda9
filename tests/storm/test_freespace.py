"""FreeSpaceMap: the segment-tree first-fit index must agree with a
naive linear scan on every operation sequence."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.storm.freespace import FreeSpaceMap


def naive_first_fit(free: list[int], needed: int, start: int = 0) -> int | None:
    for page_id in range(start, len(free)):
        if free[page_id] >= needed:
            return page_id
    return None


def test_empty_map():
    fsm = FreeSpaceMap()
    assert len(fsm) == 0
    assert fsm.first_at_least(1) is None
    assert fsm.get(0) == 0
    assert 0 not in fsm


def test_sequential_fill_and_query():
    fsm = FreeSpaceMap()
    for page_id in range(10):
        fsm.set(page_id, page_id * 10)
    assert fsm.first_at_least(35) == 4
    assert fsm.first_at_least(35, start=5) == 5
    assert fsm.first_at_least(91) is None
    assert fsm.first_at_least(0) == 0
    assert list(fsm.items()) == [(i, i * 10) for i in range(10)]


def test_update_moves_the_answer():
    fsm = FreeSpaceMap()
    for page_id in range(4):
        fsm.set(page_id, 100)
    fsm.set(0, 5)
    fsm.set(1, 5)
    assert fsm.first_at_least(50) == 2
    fsm.set(2, 0)
    assert fsm.first_at_least(50) == 3
    fsm.set(3, 49)
    assert fsm.first_at_least(50) is None


@given(
    ops=st.lists(
        st.tuples(st.integers(min_value=0, max_value=40), st.integers(0, 500)),
        max_size=80,
    ),
    queries=st.lists(
        st.tuples(st.integers(0, 501), st.integers(0, 45)), max_size=20
    ),
)
def test_matches_naive_linear_scan(ops, queries):
    fsm = FreeSpaceMap()
    mirror: list[int] = []
    for page_id, free in ops:
        # Mimic sequential page allocation: clamp into the next-free slot
        # so the map grows the way a heap file grows.
        page_id = min(page_id, len(mirror))
        if page_id == len(mirror):
            mirror.append(free)
        else:
            mirror[page_id] = free
        fsm.set(page_id, free)
    assert list(fsm.items()) == list(enumerate(mirror))
    # Bulk-loading the same values answers exactly like set-by-set growth.
    bulk = FreeSpaceMap(mirror)
    assert list(bulk.items()) == list(enumerate(mirror))
    for needed, start in queries:
        expected = naive_first_fit(mirror, needed, start)
        assert fsm.first_at_least(needed, start=start) == expected, (needed, start, mirror)
        assert bulk.first_at_least(needed, start=start) == expected, (needed, start, mirror)


def test_bulk_loaded_map_keeps_growing():
    fsm = FreeSpaceMap([10, 20, 30])
    assert fsm.first_at_least(25) == 2
    fsm.set(3, 99)
    fsm.set(1, 50)
    assert fsm.first_at_least(40) == 1
    assert fsm.first_at_least(60) == 3
    assert list(fsm.items()) == [(0, 10), (1, 50), (2, 30), (3, 99)]
