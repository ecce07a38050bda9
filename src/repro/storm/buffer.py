"""The buffer manager: a fixed pool of page frames over a disk.

A frame is created the first time it is grabbed, so a pool nobody pins
holds no per-frame objects; ``pool_size`` bounds how many can exist.
Pages are pinned into frames with :meth:`BufferManager.pin` (or the
``with buffer.pinned(...)`` context manager), mutated in place, marked
dirty, and written back on eviction or :meth:`BufferManager.flush_all`.
When no frame is free the pluggable
:class:`~repro.storm.replacement.ReplacementStrategy` picks a victim
among unpinned frames; pinned pages are never evicted.

:meth:`BufferManager.touch` books a run of pins and unpins over pages
``0 … n-1`` — what a full scan or a clone's open costs — in bulk when
every page is resident or the pool is untouched, with the same counters
and strategy state as the page-by-page loop.  A run into an untouched
pool is *deferred*: the manager counts it (pages ``0 … n-1`` resident in
frames ``pool_size-1 …``, clean and unpinned, plus how many whole-run
touches followed) and builds no frame and copies no page.  Repeating the
run adds one to that count, and a flush has nothing of it to write; any
other operation first materialises the run — copies the pages, builds
the frames and replays the strategy callbacks in their original order —
so nothing observable differs from booking it eagerly.  A template clone
that is only ever scanned never builds a frame.

Every logical access is counted in :class:`AccessStats`; the simulation
layer converts the *physical* read count into simulated I/O time, which
is how StorM's buffer behaviour shows up in BestPeer's agent service
times.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import BufferError_, BufferFullError, PageError
from repro.storm.disk import InMemoryDisk
from repro.storm.replacement import LruStrategy, ReplacementStrategy


@dataclass
class AccessStats:
    """Cumulative buffer-access counters."""

    logical_reads: int = 0
    physical_reads: int = 0
    physical_writes: int = 0

    @property
    def hits(self) -> int:
        return self.logical_reads - self.physical_reads

    @property
    def hit_ratio(self) -> float:
        if self.logical_reads == 0:
            return 0.0
        return self.hits / self.logical_reads

    def snapshot(self) -> "AccessStats":
        """A frozen copy, e.g. to diff before/after an operation."""
        return AccessStats(self.logical_reads, self.physical_reads, self.physical_writes)

    def since(self, earlier: "AccessStats") -> "AccessStats":
        """The delta between this snapshot and an ``earlier`` one."""
        return AccessStats(
            self.logical_reads - earlier.logical_reads,
            self.physical_reads - earlier.physical_reads,
            self.physical_writes - earlier.physical_writes,
        )


class _Frame:
    __slots__ = ("page_id", "data", "pin_count", "dirty")

    def __init__(self, page_id: int | None = None, data: bytearray | None = None):
        self.page_id = page_id
        self.data = data
        self.pin_count = 0
        self.dirty = False


class BufferManager:
    """Fixed-size page cache with pluggable replacement."""

    def __init__(
        self,
        disk: InMemoryDisk,
        pool_size: int = 64,
        strategy: ReplacementStrategy | None = None,
    ):
        if pool_size < 1:
            raise BufferError_(f"pool size must be >= 1, got {pool_size}")
        self.disk = disk
        self.pool_size = pool_size
        self.strategy = strategy if strategy is not None else LruStrategy()
        self.stats = AccessStats()
        # frame id -> frame, filled by _grab_frame as frames are first used
        self._frames: dict[int, _Frame] = {}
        self._page_table: dict[int, int] = {}
        # Occupied frames whose pin count is zero — the eviction
        # candidates.  Maintained on every pin/unpin/evict so victim
        # selection never scans the whole pool.
        self._unpinned: set[int] = set()
        # A deferred run (see touch): pages 0 … _run-1 are resident but
        # not yet in _frames / _page_table, and _run_touches whole-run
        # accesses followed their load.  Only paths that miss the page
        # table check it.
        self._run = 0
        self._run_touches = 0

    # -- pin / unpin ----------------------------------------------------------

    def pin(self, page_id: int) -> bytearray:
        """Pin ``page_id`` into a frame and return its live buffer.

        The returned bytearray is the frame's actual storage: mutate it
        and call :meth:`mark_dirty` to persist changes.  Every ``pin``
        needs a matching :meth:`unpin`.
        """
        frame_id = self._page_table.get(page_id)
        if frame_id is not None:
            self.stats.logical_reads += 1
            frame = self._frames[frame_id]
            frame.pin_count += 1
            if frame.pin_count == 1:
                self._unpinned.discard(frame_id)
            self.strategy.on_page_accessed(frame_id)
            assert frame.data is not None
            return frame.data
        if self._run:
            self._materialise()
            return self.pin(page_id)
        # Read first: a page id the disk refuses must not cost a frame (or
        # evict a victim for one), a strategy callback or a counted access.
        data = self.disk.read_page(page_id)
        self.stats.logical_reads += 1
        frame_id = self._grab_frame()
        frame = self._frames[frame_id]
        self.stats.physical_reads += 1
        frame.data = data
        frame.page_id = page_id
        frame.pin_count = 1
        frame.dirty = False
        self._page_table[page_id] = frame_id
        self.strategy.on_page_loaded(frame_id)
        return frame.data

    def unpin(self, page_id: int) -> None:
        """Release one pin on ``page_id``."""
        frame_id = self._frame_id(page_id)
        frame = self._frames[frame_id]
        if frame.pin_count <= 0:
            raise BufferError_(f"page {page_id} is not pinned")
        frame.pin_count -= 1
        if frame.pin_count == 0:
            self._unpinned.add(frame_id)

    def touch(self, count: int) -> None:
        """Pin and unpin pages ``0 … count-1`` once each, in ascending order.

        Exactly ``for page_id in range(count): pin(page_id); unpin(page_id)``
        — same counters, residency, victims and strategy state — with the
        two runs a full scan meets booked in bulk instead of page by page:
        every page already resident (a store that fits its pool), and a
        pool no page has entered yet (a template clone's open).  The second
        is deferred: counted at once, materialised by the first operation
        that is not the same whole run again.  Any other run takes the loop.
        """
        if self._run:
            if count == self._run:
                self.stats.logical_reads += count
                self._run_touches += 1
                return
            self._materialise()
        if not self._frames:
            if 0 < count <= min(self.pool_size, self.disk.num_pages):
                self.stats.logical_reads += count
                self.stats.physical_reads += count
                self._run = count
                return
        else:
            frame_ids = list(map(self._page_table.get, range(count)))
            if None not in frame_ids:
                self.stats.logical_reads += count
                self.strategy.on_pages_accessed(frame_ids)
                return
        for page_id in range(count):
            self.pin(page_id)
            self.unpin(page_id)

    def _materialise(self) -> None:
        """Build the deferred run's frames, as booking it eagerly would have.

        The pages are read now (a buffer's disk changes only through the
        buffer, and a run's pages are clean), and the strategy hears the
        load and then each whole-run access, in their original order.
        """
        count, touches = self._run, self._run_touches
        self._run = self._run_touches = 0
        page_ids = range(count)
        frame_ids = range(self.pool_size - 1, self.pool_size - 1 - count, -1)
        frames = map(_Frame, page_ids, self.disk.read_run(count))
        self._frames.update(zip(frame_ids, frames))
        self._page_table.update(zip(page_ids, frame_ids))
        self._unpinned.update(frame_ids)
        self.strategy.on_pages_loaded(frame_ids)
        for _ in range(touches):
            self.strategy.on_pages_accessed(frame_ids)

    @contextmanager
    def pinned(self, page_id: int):
        """Context manager pairing pin/unpin::

        with buffer.pinned(page_id) as data:
            ...
        """
        data = self.pin(page_id)
        try:
            yield data
        finally:
            self.unpin(page_id)

    def new_page(self) -> tuple[int, bytearray]:
        """Allocate a fresh page on disk and pin it (zeroed, dirty)."""
        if self._run:
            self._materialise()
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

    def mark_dirty(self, page_id: int) -> None:
        """Record that the pinned page's buffer was modified."""
        frame = self._frames[self._frame_id(page_id)]
        if frame.pin_count <= 0:
            raise BufferError_(f"page {page_id} must be pinned to be dirtied")
        frame.dirty = True

    # -- flushing ---------------------------------------------------------------

    def flush_page(self, page_id: int) -> None:
        """Write one resident page back to disk if dirty."""
        frame_id = self._page_table.get(page_id)
        if frame_id is None:
            return
        frame = self._frames[frame_id]
        if frame.dirty:
            assert frame.data is not None
            self.disk.write_page(page_id, bytes(frame.data))
            self.stats.physical_writes += 1
            frame.dirty = False

    def flush_all(self) -> None:
        """Write every dirty resident page back to disk."""
        for page_id in list(self._page_table):
            self.flush_page(page_id)

    # -- introspection ------------------------------------------------------------

    def pin_count(self, page_id: int) -> int:
        """Current pin count (0 when not resident)."""
        frame_id = self._page_table.get(page_id)
        if frame_id is None:
            return 0
        return self._frames[frame_id].pin_count

    @property
    def resident_pages(self) -> set[int]:
        """Page ids currently cached."""
        if self._run:
            self._materialise()
        return set(self._page_table)

    @property
    def frames_allocated(self) -> int:
        """How many of the ``pool_size`` frames have been created so far."""
        return len(self._frames)

    # -- internals ----------------------------------------------------------------

    def _frame_id(self, page_id: int) -> int:
        frame_id = self._page_table.get(page_id)
        if frame_id is None and self._run:
            self._materialise()
            frame_id = self._page_table.get(page_id)
        if frame_id is None:
            raise PageError(f"page {page_id} is not resident")
        return frame_id

    def _grab_frame(self) -> int:
        if len(self._frames) < self.pool_size:
            # Ids run pool_size-1 down to 0: strategies key their state by
            # frame id and break ties on it, so the hand-out order decides
            # victims and, through physical reads, simulated I/O time.
            frame_id = self.pool_size - 1 - len(self._frames)
            self._frames[frame_id] = _Frame()
            return frame_id
        if not self._unpinned:
            raise BufferFullError(
                f"all {self.pool_size} frames are pinned; cannot evict"
            )
        # Ascending frame-id order, exactly as the former full-pool scan
        # produced — order-sensitive strategies see the same candidates.
        candidates = sorted(self._unpinned)
        victim = self.strategy.choose_victim(candidates)
        if victim not in self._unpinned:
            raise BufferError_(
                f"strategy {self.strategy.name} chose pinned/unknown frame {victim}"
            )
        self._evict(victim)
        return victim

    def _evict(self, frame_id: int) -> None:
        frame = self._frames[frame_id]
        assert frame.page_id is not None
        if frame.dirty:
            assert frame.data is not None
            self.disk.write_page(frame.page_id, bytes(frame.data))
            self.stats.physical_writes += 1
        del self._page_table[frame.page_id]
        self.strategy.on_page_evicted(frame_id)
        self._unpinned.discard(frame_id)
        frame.page_id = None
        frame.data = None
        frame.pin_count = 0
        frame.dirty = False
