"""Frames are created on first grab — and nothing observable moves.

Replacement strategies key their state by frame id and break ties on
it, so the order in which ids are handed out decides victims, physical
reads and, from there, simulated I/O time.  ``EagerBuffer`` below is the
former implementation (every frame built up front, ids popped off a
free list); hypothesis drives it and :class:`BufferManager` side by side
and every strategy callback, return value, error and counter must agree.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BufferError_, BufferFullError, PageError
from repro.storm.buffer import AccessStats, BufferManager
from repro.storm.disk import InMemoryDisk
from repro.storm.replacement import ReplacementStrategy, make_strategy
from repro.storm.store import StorM
from repro.storm.template import SnapshotDisk, StoreTemplate

STRATEGIES = ["lru", "mru", "fifo", "clock", "lru-k"]


class EagerBuffer:
    """Reference model: ``pool_size`` frames built in ``__init__``."""

    def __init__(self, disk, pool_size, strategy):
        self.disk = disk
        self.pool_size = pool_size
        self.strategy = strategy
        self.stats = AccessStats()
        self._frames = [
            SimpleNamespace(page_id=None, data=None, pin_count=0, dirty=False)
            for _ in range(pool_size)
        ]
        self._free = list(range(pool_size))
        self._page_table = {}

    def pin(self, page_id):
        self.stats.logical_reads += 1
        frame_id = self._page_table.get(page_id)
        if frame_id is not None:
            frame = self._frames[frame_id]
            frame.pin_count += 1
            self.strategy.on_page_accessed(frame_id)
            return frame.data
        frame_id = self._grab_frame()
        frame = self._frames[frame_id]
        self.stats.physical_reads += 1
        frame.data = self.disk.read_page(page_id)
        frame.page_id = page_id
        frame.pin_count = 1
        frame.dirty = False
        self._page_table[page_id] = frame_id
        self.strategy.on_page_loaded(frame_id)
        return frame.data

    def unpin(self, page_id):
        frame_id = self._page_table.get(page_id)
        if frame_id is None:
            raise PageError(f"page {page_id} is not resident")
        frame = self._frames[frame_id]
        if frame.pin_count <= 0:
            raise BufferError_(f"page {page_id} is not pinned")
        frame.pin_count -= 1

    def new_page(self):
        page_id = self.disk.allocate_page()
        self.stats.logical_reads += 1
        frame_id = self._grab_frame()
        frame = self._frames[frame_id]
        frame.data = bytearray(self.disk.page_size)
        frame.page_id = page_id
        frame.pin_count = 1
        frame.dirty = True
        self._page_table[page_id] = frame_id
        self.strategy.on_page_loaded(frame_id)
        return page_id, frame.data

    def mark_dirty(self, page_id):
        frame_id = self._page_table.get(page_id)
        if frame_id is None:
            raise PageError(f"page {page_id} is not resident")
        frame = self._frames[frame_id]
        if frame.pin_count <= 0:
            raise BufferError_(f"page {page_id} must be pinned to be dirtied")
        frame.dirty = True

    def flush_all(self):
        for page_id, frame_id in list(self._page_table.items()):
            frame = self._frames[frame_id]
            if frame.dirty:
                self.disk.write_page(page_id, bytes(frame.data))
                self.stats.physical_writes += 1
                frame.dirty = False

    @property
    def resident_pages(self):
        return set(self._page_table)

    def pin_count(self, page_id):
        frame_id = self._page_table.get(page_id)
        return 0 if frame_id is None else self._frames[frame_id].pin_count

    def _grab_frame(self):
        if self._free:
            return self._free.pop()
        candidates = sorted(
            frame_id
            for frame_id, frame in enumerate(self._frames)
            if frame.page_id is not None and frame.pin_count == 0
        )
        if not candidates:
            raise BufferFullError(f"all {self.pool_size} frames are pinned")
        victim = self.strategy.choose_victim(candidates)
        frame = self._frames[victim]
        if frame.dirty:
            self.disk.write_page(frame.page_id, bytes(frame.data))
            self.stats.physical_writes += 1
        del self._page_table[frame.page_id]
        self.strategy.on_page_evicted(victim)
        frame.page_id = None
        frame.data = None
        frame.pin_count = 0
        frame.dirty = False
        return victim


class Recording(ReplacementStrategy):
    """Logs every callback (frame ids included) on its way to ``inner``."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.log = []

    def on_page_loaded(self, frame_id):
        self.log.append(("loaded", frame_id))
        self.inner.on_page_loaded(frame_id)

    def on_page_accessed(self, frame_id):
        self.log.append(("accessed", frame_id))
        self.inner.on_page_accessed(frame_id)

    def on_page_evicted(self, frame_id):
        self.log.append(("evicted", frame_id))
        self.inner.on_page_evicted(frame_id)

    def choose_victim(self, candidates):
        victim = self.inner.choose_victim(candidates)
        self.log.append(("victim", tuple(candidates), victim))
        return victim


def _apply(buffer, op, arg, value):
    """Run one trace step; the outcome is a comparable value."""
    pages = buffer.disk.num_pages
    try:
        if op == "new":
            page_id, data = buffer.new_page()
            return page_id, bytes(data)
        if op == "flush":
            return buffer.flush_all()
        if pages == 0:
            return "no pages yet"
        page_id = arg % pages
        if op == "pin":
            return bytes(buffer.pin(page_id))
        if op == "unpin":
            return buffer.unpin(page_id)
        assert op == "dirty"
        if buffer.pin_count(page_id) > 0:
            # Change the page only where mark_dirty will accept it, as
            # real callers do (they hold the pin whose buffer they edit).
            buffer.pin(page_id)[0] = value
            buffer.unpin(page_id)
        return buffer.mark_dirty(page_id)
    except (BufferError_, PageError) as exc:  # BufferFullError is a BufferError_
        return type(exc).__name__


TRACES = st.lists(
    st.tuples(
        st.sampled_from(["new", "new", "pin", "pin", "unpin", "unpin", "dirty", "flush"]),
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=1, max_value=255),
    ),
    max_size=70,
)


@pytest.mark.parametrize("name", STRATEGIES)
@settings(max_examples=60, deadline=None)
@given(pool_size=st.integers(min_value=1, max_value=4), trace=TRACES)
def test_lazy_pool_matches_the_eager_reference(name, pool_size, trace):
    lazy_log = Recording(make_strategy(name))
    eager_log = Recording(make_strategy(name))
    lazy = BufferManager(InMemoryDisk(), pool_size, lazy_log)
    eager = EagerBuffer(InMemoryDisk(), pool_size, eager_log)
    for op, arg, value in trace:
        assert _apply(lazy, op, arg, value) == _apply(eager, op, arg, value)
        assert lazy_log.log == eager_log.log
        assert lazy.stats == eager.stats
        assert lazy.resident_pages == eager.resident_pages
    grabbed = {entry[1] for entry in lazy_log.log if entry[0] == "loaded"}
    assert lazy.frames_allocated == len(grabbed) <= pool_size
    # First grabs walk the ids downwards from pool_size - 1.
    assert grabbed == set(range(pool_size - len(grabbed), pool_size))
    for buffer in (lazy, eager):
        buffer.flush_all()
    assert lazy.stats == eager.stats
    pages = lazy.disk.num_pages
    assert pages == eager.disk.num_pages
    assert [lazy.disk.read_page(i) for i in range(pages)] == [
        eager.disk.read_page(i) for i in range(pages)
    ]


class TestFramesAllocated:
    def test_an_unpinned_pool_holds_no_frames(self):
        buffer = BufferManager(InMemoryDisk(), pool_size=512)
        assert buffer.frames_allocated == 0

    def test_ids_count_down_and_a_victim_is_reused(self):
        strategy = Recording(make_strategy("lru"))
        buffer = BufferManager(InMemoryDisk(), pool_size=3, strategy=strategy)
        for _ in range(5):
            page_id, _ = buffer.new_page()
            buffer.unpin(page_id)
        loaded = [entry[1] for entry in strategy.log if entry[0] == "loaded"]
        assert loaded == [2, 1, 0, 2, 1]
        assert buffer.frames_allocated == 3

    def test_full_pool_of_pins_still_raises(self):
        buffer = BufferManager(InMemoryDisk(), pool_size=2)
        buffer.new_page()
        buffer.new_page()
        with pytest.raises(BufferFullError):
            buffer.new_page()
        assert buffer.frames_allocated == 2

    def test_frames_allocated_is_read_only(self):
        buffer = BufferManager(InMemoryDisk(), pool_size=2)
        with pytest.raises(AttributeError):
            buffer.frames_allocated = 1

    def test_empty_store_allocates_nothing_until_it_stores(self):
        store = StorM()
        assert store.buffer.frames_allocated == 0
        store.put(["k"], b"payload")
        assert store.buffer.frames_allocated == 1

    @pytest.mark.parametrize("pool_size", [512, 3])
    def test_template_clone_allocates_one_frame_per_page(self, pool_size):
        """...at its first access that is not a whole-store run.  A clone
        whose pages fit its pool builds no frame to open or to scan."""
        store = StorM()
        store.put_many(([f"k{i}"], bytes(900)) for i in range(40))
        template = StoreTemplate.from_store(store)
        pages = len(template.decoded_pages)
        assert pages > 3
        clone = StorM(
            disk=SnapshotDisk(template), pool_size=pool_size, template=template
        )
        built_to_open = 0 if pages <= pool_size else pool_size
        assert clone.buffer.frames_allocated == built_to_open
        assert clone.search_scan("k7").match_count == 1
        assert clone.buffer.frames_allocated == built_to_open
        # Asking which pages are resident builds the deferred run's frames.
        assert len(clone.buffer.resident_pages) == min(pages, pool_size)
        assert clone.buffer.frames_allocated == min(pages, pool_size)
