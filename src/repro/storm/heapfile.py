"""Heap file: an unordered collection of records over slotted pages.

Records are addressed by :class:`RecordId` ``(page_id, slot)`` — the
paper's object identifiers.  A free-space map (built on open from each
page's slot directory, or copied ready-built from a store template, and
kept current on insert/delete) steers insertions to pages with room
before new pages are allocated.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.errors import PageError, RecordNotFound, StormError
from repro.storm.buffer import BufferManager
from repro.storm.freespace import FreeSpaceMap
from repro.storm.page import HEADER_SIZE, SLOT_SIZE, SlottedPage


@dataclass(frozen=True, slots=True, order=True)
class RecordId:
    """Physical address of one record: page number and slot number."""

    page_id: int
    slot: int

    def __str__(self) -> str:
        return f"rid({self.page_id}:{self.slot})"


class HeapFile:
    """Record storage over a :class:`BufferManager`."""

    def __init__(
        self,
        buffer: BufferManager,
        summary: tuple[FreeSpaceMap, int] | None = None,
    ):
        """Open the file: every page is pinned once, in ascending order.

        ``summary`` is ``(free-space map, record count)`` when the caller
        already knows them (a store template's clone; the file takes the
        map as its own); otherwise both are read off each page's slot
        directory.
        """
        self.buffer = buffer
        self.max_record_size = buffer.disk.page_size - HEADER_SIZE - SLOT_SIZE
        # Per-page mutation counters: bumped whenever a page's record set
        # changes, so caches of decoded records (StorM's scan cache) can
        # validate in O(1).  Compaction does not bump — it moves bytes
        # without changing any live record's slot or contents.
        self._versions: dict[int, int] = {}
        page_count = buffer.disk.num_pages
        # First-fit free-space index: finds the lowest page with room in
        # O(log pages) instead of a scan.
        if summary is None:
            free, self._record_count = [], 0
            for page_id in range(page_count):
                with buffer.pinned(page_id) as data:
                    page_free, live = SlottedPage(data).summary()
                free.append(page_free)
                self._record_count += live
            self._free_space = FreeSpaceMap(free)
        else:
            self._free_space, self._record_count = summary
            if len(self._free_space) != page_count:
                raise StormError(
                    f"summary of {len(self._free_space)} pages"
                    f" for a file of {page_count}"
                )
            buffer.touch(page_count)

    # -- operations -----------------------------------------------------------

    def insert(self, record: bytes) -> RecordId:
        """Store a record, extending the file if no page has room."""
        if len(record) > self.max_record_size:
            raise PageError(
                f"record of {len(record)} bytes exceeds max "
                f"{self.max_record_size} for this page size"
            )
        needed = len(record) + SLOT_SIZE
        page_id = self._free_space.first_at_least(needed)
        while page_id is not None:
            slot = self._try_insert(page_id, record)
            if slot is not None:
                self._record_count += 1
                return RecordId(page_id, slot)
            page_id = self._free_space.first_at_least(needed, start=page_id + 1)
        page_id, data = self.buffer.new_page()
        try:
            page = SlottedPage.format(data)
            slot = page.insert(record)
            assert slot is not None, "fresh page must fit a max-size record"
            self.buffer.mark_dirty(page_id)
            self._free_space.set(page_id, page.free_space)
            self._bump_version(page_id)
        finally:
            self.buffer.unpin(page_id)
        self._record_count += 1
        return RecordId(page_id, slot)

    def _try_insert(self, page_id: int, record: bytes) -> int | None:
        with self.buffer.pinned(page_id) as data:
            page = SlottedPage(data)
            slots_before = page.slot_count
            slot = page.insert(record)
            if slot is not None:
                self.buffer.mark_dirty(page_id)
                self._bump_version(page_id)
                # The map is authoritative (updated on every mutation),
                # so the new free space follows arithmetically — no
                # O(slots) recount per insert.
                spent = len(record) + (SLOT_SIZE if slot >= slots_before else 0)
                self._free_space.set(
                    page_id, self._free_space.get(page_id) - spent
                )
            else:
                # The map overestimated this page (a stale entry).  Heal
                # it to the true value, or the second-chance probe of
                # *every* later insert re-scans this same page forever.
                self._free_space.set(page_id, page.free_space)
            return slot

    def insert_many(self, records: Iterable[bytes]) -> list[RecordId]:
        """Bulk-insert ``records``; returns one :class:`RecordId` each.

        Produces the *exact* record ids, page layouts, free-space-map
        state, and buffer access sequence that calling :meth:`insert`
        once per record would — the per-record path remains the
        semantic reference — while paying the first-fit query, the
        free-space update, and the page-directory walk once per *page
        run* instead of once per record.

        The packing rule that keeps first-fit placement identical: once
        a record of ``n`` bytes selects page ``P`` via the global
        first-fit query, every page before ``P`` is known to lack room
        for ``n`` bytes.  Following records at least that large can
        therefore pack into ``P`` while its map entry admits them (no
        earlier page can claim them); the first smaller or unadmitted
        record ends the run, the map entry for ``P`` is settled, and a
        fresh global query decides its page.
        """
        records = list(records)
        rids: list[RecordId] = []
        index = 0
        total = len(records)
        while index < total:
            record = records[index]
            if len(record) > self.max_record_size:
                raise PageError(
                    f"record of {len(record)} bytes exceeds max "
                    f"{self.max_record_size} for this page size"
                )
            needed = len(record) + SLOT_SIZE
            page_id = self._free_space.first_at_least(needed)
            placed = False
            while page_id is not None:
                map_free = self._free_space.get(page_id)
                run = self._gather_run(records, index, map_free)
                data = self.buffer.pin(page_id)
                try:
                    page = SlottedPage(data)
                    slots_before = page.slot_count
                    slots = page.insert_many(run)
                    if slots:
                        self._settle_run(
                            page_id, records, index, slots, slots_before, map_free
                        )
                        rids.extend(RecordId(page_id, slot) for slot in slots)
                        index += len(slots)
                        placed = True
                        break
                    # Stale map entry (nothing fit despite the query):
                    # heal it and take the second chance, as insert does.
                    self._free_space.set(page_id, page.free_space)
                finally:
                    self.buffer.unpin(page_id)
                page_id = self._free_space.first_at_least(
                    needed, start=page_id + 1
                )
            if placed:
                continue
            page_id, data = self.buffer.new_page()
            try:
                page = SlottedPage.format(data)
                run = self._gather_run(records, index, page.free_space)
                slots = page.insert_many(run)
                assert slots, "fresh page must fit a max-size record"
                self._settle_run(page_id, records, index, slots, 0, None)
                # For a fresh page the per-record path records the real
                # free space (there is no prior map entry to adjust).
                self._free_space.set(page_id, page.free_space)
                rids.extend(RecordId(page_id, slot) for slot in slots)
                index += len(slots)
            finally:
                self.buffer.unpin(page_id)
        return rids

    def _gather_run(
        self, records: list[bytes], index: int, free_estimate: int
    ) -> list[bytes]:
        """The maximal batch starting at ``index`` allowed on one page.

        Only records no smaller than the run's opener may ride along
        (see :meth:`insert_many`), and only while ``free_estimate``,
        charged a new slot per record, still admits each one: the
        per-record path asks the map for ``len + SLOT_SIZE`` bytes, so a
        record that would fit only by reusing a dead slot is not placed
        on this page by first fit and must start a fresh query.
        """
        anchor = len(records[index])
        budget = free_estimate - anchor - SLOT_SIZE
        end = index + 1
        while end < len(records):
            size = len(records[end])
            if not anchor <= size <= self.max_record_size or budget < size + SLOT_SIZE:
                break
            budget -= size + SLOT_SIZE
            end += 1
        return records[index:end]

    def _settle_run(
        self,
        page_id: int,
        records: list[bytes],
        index: int,
        slots: list[int],
        slots_before: int,
        map_free: int | None,
    ) -> None:
        """Post-run bookkeeping, mirroring per-record :meth:`insert`."""
        # The per-record path pins the page once per insert; replicate
        # those accesses so buffer statistics and replacement-strategy
        # state stay bit-identical even mid-eviction workloads.
        for _ in range(len(slots) - 1):
            self.buffer.pin(page_id)
            self.buffer.unpin(page_id)
        self.buffer.mark_dirty(page_id)
        if map_free is not None:
            spent = sum(
                len(records[index + i]) for i in range(len(slots))
            ) + SLOT_SIZE * sum(1 for slot in slots if slot >= slots_before)
            self._free_space.set(page_id, map_free - spent)
        self._versions[page_id] = (
            self._versions.get(page_id, 0) + len(slots)
        )
        self._record_count += len(slots)

    def read(self, rid: RecordId) -> bytes:
        """Fetch the record at ``rid``; raises :class:`RecordNotFound`."""
        self._check_page(rid)
        with self.buffer.pinned(rid.page_id) as data:
            page = SlottedPage(data)
            try:
                return page.read(rid.slot)
            except PageError as exc:
                raise RecordNotFound(f"no record at {rid}") from exc

    def delete(self, rid: RecordId) -> None:
        """Remove the record at ``rid``."""
        self._check_page(rid)
        with self.buffer.pinned(rid.page_id) as data:
            page = SlottedPage(data)
            try:
                page.delete(rid.slot)
            except PageError as exc:
                raise RecordNotFound(f"no record at {rid}") from exc
            self.buffer.mark_dirty(rid.page_id)
            self._free_space.set(rid.page_id, page.free_space)
            self._bump_version(rid.page_id)
        self._record_count -= 1

    def exists(self, rid: RecordId) -> bool:
        """True when ``rid`` addresses a live record."""
        if not 0 <= rid.page_id < self.page_count:
            return False
        with self.buffer.pinned(rid.page_id) as data:
            page = SlottedPage(data)
            return rid.slot < page.slot_count and page.is_live(rid.slot)

    def scan(self) -> Iterator[tuple[RecordId, bytes]]:
        """Yield every live record, in page order."""
        for page_id in range(self.page_count):
            with self.buffer.pinned(page_id) as data:
                page = SlottedPage(data)
                records = list(page.records())
            for slot, record in records:
                yield RecordId(page_id, slot), record

    def vacuum(self) -> int:
        """Compact every page, squeezing out deletion holes.

        Slot numbers (and therefore record ids) are preserved — only the
        in-page layout changes.  Returns the number of bytes reclaimed
        into contiguous free space across the file.
        """
        reclaimed = 0
        for page_id in range(self.page_count):
            with self.buffer.pinned(page_id) as data:
                page = SlottedPage(data)
                before = page.contiguous_free_space
                page.compact()
                after = page.contiguous_free_space
                if after != before:
                    self.buffer.mark_dirty(page_id)
                    reclaimed += after - before
                self._free_space.set(page_id, page.free_space)
        return reclaimed

    # -- introspection -----------------------------------------------------------

    @property
    def page_count(self) -> int:
        return self.buffer.disk.num_pages

    @property
    def record_count(self) -> int:
        return self._record_count

    @property
    def unwritten(self) -> bool:
        """True while no page's record set has changed since the open."""
        return not self._versions

    def page_version(self, page_id: int) -> int:
        """Mutation counter for one page (0 until its records change)."""
        return self._versions.get(page_id, 0)

    def _bump_version(self, page_id: int) -> None:
        self._versions[page_id] = self._versions.get(page_id, 0) + 1

    def _check_page(self, rid: RecordId) -> None:
        if not 0 <= rid.page_id < self.page_count:
            raise RecordNotFound(f"no record at {rid} (page out of range)")
