"""``BufferManager.touch(n)`` is the loop ``pin(p); unpin(p)`` for p < n.

The battery drives two identical buffers — one through ``touch``, one
through the loop — from the same prelude (pages already resident,
pinned or dirty; pools below, at and above ``n``) under every
replacement strategy, and requires the same counters, page table,
frames, evictable set and strategy state afterwards, and the same
victims for the next ten evictions.  A run into an untouched pool is
deferred; the second battery follows one with random operations and
requires what the former eager booking (``_load_run_eagerly``) leaves.
The last tests check that the bulk runs really skip the per-page path.
"""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StormError
from repro.storm.buffer import BufferManager, _Frame
from repro.storm.disk import PAGE_SIZE, InMemoryDisk
from repro.storm.replacement import make_strategy

STRATEGIES = ["lru", "mru", "fifo", "clock", "lru-k"]

# (kind, page): "read" pins and unpins, "hold" leaves a pin, "dirty"
# writes the page and unpins it.
preludes = st.lists(
    st.tuples(st.sampled_from(["read", "hold", "dirty"]), st.integers(0, 11)),
    max_size=14,
)


def _buffer(strategy: str, pages: int, pool_size: int) -> BufferManager:
    disk = InMemoryDisk()
    for page_id in range(pages):
        disk.allocate_page()
        disk.write_page(page_id, bytes([page_id]) * PAGE_SIZE)
    return BufferManager(disk, pool_size=pool_size, strategy=make_strategy(strategy))


def _run_prelude(buffer: BufferManager, prelude) -> None:
    for kind, page_id in prelude:
        page_id %= buffer.disk.num_pages
        # Leave a frame free, so the prelude itself never runs out.
        if kind == "hold" and sum(
            buffer.pin_count(p) > 0 for p in range(buffer.disk.num_pages)
        ) >= buffer.pool_size - 1:
            kind = "read"
        data = buffer.pin(page_id)
        if kind == "dirty":
            data[1] ^= 0xFF
            buffer.mark_dirty(page_id)
        if kind != "hold":
            buffer.unpin(page_id)


def _strategy_state(strategy) -> dict:
    """Stamps, clock, reference bits, ring, hand, history or RNG state."""
    state = copy.deepcopy(vars(strategy))
    for name, value in state.items():
        if isinstance(value, random.Random):
            state[name] = value.getstate()
    return state


def _state(buffer: BufferManager) -> dict:
    return {
        "stats": buffer.stats.snapshot(),
        "resident": buffer.resident_pages,  # materialises a deferred run
        "page_table": dict(buffer._page_table),
        "frames": {
            frame_id: (frame.page_id, frame.data, frame.pin_count, frame.dirty)
            for frame_id, frame in buffer._frames.items()
        },
        "unpinned": set(buffer._unpinned),
        "strategy": _strategy_state(buffer.strategy),
    }


def _attempt(action) -> type | None:
    try:
        action()
    except StormError as exc:
        return type(exc)
    return None


def _loop(buffer: BufferManager, count: int) -> None:
    for page_id in range(count):
        buffer.pin(page_id)
        buffer.unpin(page_id)


def _victims(buffer: BufferManager) -> list:
    """Resident pages after each of enough new pages to force ten evictions."""
    seen = []
    for _ in range(buffer.pool_size + 10):
        try:
            page_id, _data = buffer.new_page()
        except StormError as exc:
            seen.append(type(exc))
            break
        buffer.unpin(page_id)
        seen.append(sorted(buffer.resident_pages))
    return seen


@settings(max_examples=300, deadline=None)
@given(
    strategy=st.sampled_from(STRATEGIES),
    pages=st.integers(0, 12),
    count=st.integers(0, 12),
    pool_offset=st.integers(-4, 4),
    prelude=preludes,
)
def test_touch_is_the_pin_unpin_loop(strategy, pages, count, pool_offset, prelude):
    count = min(count, pages)
    pool_size = max(1, count + pool_offset)
    touched = _buffer(strategy, pages, pool_size)
    looped = _buffer(strategy, pages, pool_size)
    if pages:
        _run_prelude(touched, prelude)
        _run_prelude(looped, prelude)
    assert _state(touched) == _state(looped)
    assert _attempt(lambda: touched.touch(count)) == _attempt(
        lambda: _loop(looped, count)
    )
    assert _state(touched) == _state(looped)
    assert _victims(touched) == _victims(looped)
    assert _state(touched) == _state(looped)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_touching_past_the_last_page_fails_like_the_loop(strategy):
    touched = _buffer(strategy, 5, 8)
    looped = _buffer(strategy, 5, 8)
    assert _attempt(lambda: touched.touch(7)) == _attempt(lambda: _loop(looped, 7))
    assert _state(touched) == _state(looped)


def _refuse_per_page(page_id):
    raise AssertionError("touch took the per-page path")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_both_bulk_runs_skip_the_per_page_path(strategy, monkeypatch):
    buffer = _buffer(strategy, 6, 8)
    monkeypatch.setattr(buffer, "pin", _refuse_per_page)
    buffer.touch(6)  # an untouched pool: one deferred load
    buffer.touch(6)  # the same run again: one more deferred access
    assert buffer.frames_allocated == 0
    buffer.touch(3)  # materialises, then every page resident: one bulk access
    assert buffer.frames_allocated == 6
    assert buffer.stats.logical_reads == 15
    assert buffer.stats.physical_reads == 6


def test_a_partly_resident_run_takes_the_loop(monkeypatch):
    buffer = _buffer("lru", 6, 8)
    buffer.touch(2)
    monkeypatch.setattr(buffer, "pin", _refuse_per_page)
    with pytest.raises(AssertionError, match="per-page path"):
        buffer.touch(4)


def _load_run_eagerly(buffer: BufferManager, count: int) -> None:
    """The former booking of a run into an untouched pool: every frame,
    table entry and strategy callback at once."""
    page_ids = range(count)
    frame_ids = range(buffer.pool_size - 1, buffer.pool_size - 1 - count, -1)
    frames = map(_Frame, page_ids, buffer.disk.read_run(count))
    buffer._frames.update(zip(frame_ids, frames))
    buffer.stats.logical_reads += count
    buffer.stats.physical_reads += count
    buffer._page_table.update(zip(page_ids, frame_ids))
    buffer._unpinned.update(frame_ids)
    buffer.strategy.on_pages_loaded(frame_ids)


def _operate(buffer: BufferManager, op: str, arg: int, run: int, eager: bool):
    """One step after the open; the outcome is a comparable value.

    The eager twin books every touch as the pin/unpin loop, so it never
    defers anything.
    """
    pages = buffer.disk.num_pages
    try:
        if op == "touch":
            count = run if arg % 2 else arg % (pages + 2)  # may pass the end
            if eager:
                return _loop(buffer, count)
            return buffer.touch(count)
        if op == "new":
            page_id, data = buffer.new_page()
            return page_id, bytes(data)
        if op == "flush":
            return buffer.flush_all()
        page_id = arg % pages
        if op == "pin":  # evicts once the pool is full
            return bytes(buffer.pin(page_id))
        if op == "unpin":
            return buffer.unpin(page_id)
        assert op == "dirty"
        if buffer.pin_count(page_id) > 0:
            buffer.pin(page_id)[0] = arg
            buffer.unpin(page_id)
        return buffer.mark_dirty(page_id)
    except StormError as exc:
        return type(exc)


operations = st.lists(
    st.tuples(
        st.sampled_from(["touch", "touch", "pin", "pin", "unpin", "new", "dirty", "flush"]),
        st.integers(0, 255),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(
    strategy=st.sampled_from(STRATEGIES),
    run=st.integers(1, 10),
    extra_pages=st.integers(0, 3),
    pool_offset=st.integers(-3, 3),
    repeats=st.integers(0, 4),
    trace=operations,
)
def test_a_deferred_run_is_the_eager_load(
    strategy, run, extra_pages, pool_offset, repeats, trace
):
    pages = run + extra_pages
    pool_size = max(1, run + pool_offset)
    deferred = _buffer(strategy, pages, pool_size)
    eager = _buffer(strategy, pages, pool_size)
    deferred.touch(run)
    if run <= pool_size:
        _load_run_eagerly(eager, run)
    else:
        _loop(eager, run)
    for _ in range(repeats):
        deferred.touch(run)
        _loop(eager, run)
    if run <= pool_size:
        assert deferred.frames_allocated == 0
    assert deferred.stats == eager.stats
    for op, arg in trace:
        outcome = _operate(deferred, op, arg, run, eager=False)
        assert outcome == _operate(eager, op, arg, run, eager=True)
        assert deferred.stats == eager.stats
        if not deferred._run:  # reading internals would materialise it
            assert _state(deferred) == _state(eager)
    assert _state(deferred) == _state(eager)
    assert _victims(deferred) == _victims(eager)
    assert _state(deferred) == _state(eager)
