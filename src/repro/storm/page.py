"""Slotted-page record layout.

Classic textbook layout over a fixed-size byte buffer::

    +--------+-----------------------+---------------+------------------+
    | header | records (grow up) ... | free space    | slot dir (down)  |
    +--------+-----------------------+---------------+------------------+

Header (4 bytes): ``u16 slot_count``, ``u16 free_ptr`` (offset of the
next record byte).  Each slot-directory entry (4 bytes, allocated from
the page end backwards) is ``u16 offset, u16 length``; ``offset == 0``
marks a dead (deleted) slot, which is safe because live records start at
offset 4 or later.  Deleting leaves a hole; :meth:`SlottedPage.insert`
compacts the page lazily when contiguous free space is insufficient but
total free space is not.
"""

from __future__ import annotations

import struct
from collections import deque
from collections.abc import Iterator, Sequence

from repro.errors import PageError

_HEADER = struct.Struct("<HH")
_SLOT = struct.Struct("<HH")
HEADER_SIZE = _HEADER.size
SLOT_SIZE = _SLOT.size


class SlottedPage:
    """A mutable view of one page buffer with slotted-record semantics."""

    def __init__(self, data: bytearray):
        if len(data) < HEADER_SIZE + SLOT_SIZE:
            raise PageError(f"page of {len(data)} bytes is too small")
        if len(data) > 0xFFFF:
            raise PageError(f"page of {len(data)} bytes exceeds u16 offsets")
        self.data = data
        self.page_size = len(data)

    # -- construction ---------------------------------------------------------

    @classmethod
    def format(cls, data: bytearray) -> "SlottedPage":
        """Initialize a zeroed buffer as an empty slotted page."""
        page = cls(data)
        _HEADER.pack_into(page.data, 0, 0, HEADER_SIZE)
        return page

    @classmethod
    def packed(cls, page_size: int, records: "Sequence[bytes]") -> "SlottedPage":
        """A formatted page holding ``records`` in slots 0, 1, … (all must fit)."""
        page = cls.format(bytearray(page_size))
        if len(page.insert_many(records)) != len(records):
            raise PageError(f"{len(records)} records overflow a {page_size}-byte page")
        return page

    # -- header access --------------------------------------------------------

    @property
    def slot_count(self) -> int:
        return _HEADER.unpack_from(self.data, 0)[0]

    @property
    def _free_ptr(self) -> int:
        return _HEADER.unpack_from(self.data, 0)[1]

    def _set_header(self, slot_count: int, free_ptr: int) -> None:
        _HEADER.pack_into(self.data, 0, slot_count, free_ptr)

    def _slot_entry(self, slot: int) -> tuple[int, int]:
        if not 0 <= slot < self.slot_count:
            raise PageError(f"slot {slot} out of range [0, {self.slot_count})")
        position = self.page_size - SLOT_SIZE * (slot + 1)
        return _SLOT.unpack_from(self.data, position)

    def _set_slot_entry(self, slot: int, offset: int, length: int) -> None:
        position = self.page_size - SLOT_SIZE * (slot + 1)
        _SLOT.pack_into(self.data, position, offset, length)

    # -- capacity -------------------------------------------------------------

    @property
    def _dir_start(self) -> int:
        return self.page_size - SLOT_SIZE * self.slot_count

    @property
    def contiguous_free_space(self) -> int:
        """Bytes immediately available without compaction."""
        return self._dir_start - self._free_ptr

    @property
    def live_bytes(self) -> int:
        """Total bytes occupied by live records."""
        return sum(
            length
            for slot in range(self.slot_count)
            for offset, length in [self._slot_entry(slot)]
            if offset != 0
        )

    def summary(self) -> tuple[int, int]:
        """``(free_space, live_count)`` from one walk of the slot directory."""
        slot_count = self.slot_count
        live_bytes = live = 0
        position = self.page_size - SLOT_SIZE
        for _ in range(slot_count):
            offset, length = _SLOT.unpack_from(self.data, position)
            if offset != 0:
                live_bytes += length
                live += 1
            position -= SLOT_SIZE
        free = self.page_size - SLOT_SIZE * slot_count - HEADER_SIZE - live_bytes
        return free, live

    @property
    def free_space(self) -> int:
        """Bytes available after compaction (excluding a new slot entry)."""
        return self.summary()[0]

    def has_room_for(self, record_size: int) -> bool:
        """Can ``insert`` of this size succeed (possibly after compaction)?"""
        if self._has_dead_slot():
            return self.free_space >= record_size
        return self.free_space >= record_size + SLOT_SIZE

    def is_packed(self) -> bool:
        """True when :meth:`packed` of the live records rebuilds this page.

        No dead slot, the records back to back from the header in slot
        order, the free pointer at their end and zeros up to the slot
        directory: every byte then follows from the records alone.
        """
        slot_count, free_ptr = _HEADER.unpack_from(self.data, 0)
        end = HEADER_SIZE
        position = self.page_size - SLOT_SIZE
        for _ in range(slot_count):
            offset, length = _SLOT.unpack_from(self.data, position)
            if offset != end:
                return False
            end += length
            position -= SLOT_SIZE
        dir_start = self.page_size - SLOT_SIZE * slot_count
        return free_ptr == end and self.data.count(0, end, dir_start) == dir_start - end

    def _has_dead_slot(self) -> bool:
        return any(
            self._slot_entry(slot)[0] == 0 for slot in range(self.slot_count)
        )

    # -- record operations ------------------------------------------------------

    def insert(self, record: bytes) -> int | None:
        """Store a record; returns its slot number, or None if it cannot fit."""
        if len(record) > 0xFFFF:
            raise PageError(f"record of {len(record)} bytes exceeds u16 length")
        # One pass over the slot directory gathers everything the fit
        # check needs (first dead slot + live byte total); asking
        # ``free_space`` and then searching for a dead slot would walk it
        # three times per insert.
        slot_count, free_ptr = _HEADER.unpack_from(self.data, 0)
        reused_slot = None
        live = 0
        position = self.page_size - SLOT_SIZE
        for slot in range(slot_count):
            offset, length = _SLOT.unpack_from(self.data, position)
            if offset == 0:
                if reused_slot is None:
                    reused_slot = slot
            else:
                live += length
            position -= SLOT_SIZE
        dir_start = self.page_size - SLOT_SIZE * slot_count
        new_dir_bytes = 0 if reused_slot is not None else SLOT_SIZE
        if dir_start - HEADER_SIZE - live < len(record) + new_dir_bytes:
            return None
        # Fits after compaction at worst; compact only if the contiguous
        # gap between the record area and the slot directory is too small.
        if dir_start - new_dir_bytes - free_ptr < len(record):
            self.compact()
            free_ptr = self._free_ptr
        offset = free_ptr
        self.data[offset : offset + len(record)] = record
        if reused_slot is None:
            slot = slot_count
            self._set_header(slot_count + 1, offset + len(record))
        else:
            slot = reused_slot
            self._set_header(slot_count, offset + len(record))
        self._set_slot_entry(slot, offset, len(record))
        return slot

    def insert_many(self, records: "Sequence[bytes]") -> list[int]:
        """Store records until one no longer fits; returns their slots.

        Equivalent to calling :meth:`insert` once per record — same slot
        assignments, same compaction points, byte-identical final page —
        but the slot directory is walked once up front instead of once
        per record.  Insertion stops at the *first* record that does not
        fit (records after it are not attempted, exactly as a caller
        loop breaking on ``None`` would behave).
        """
        # One walk gathers the dead-slot queue and live-byte total;
        # after that every quantity is tracked incrementally.
        slot_count, free_ptr = _HEADER.unpack_from(self.data, 0)
        dead: deque[int] = deque()
        live = 0
        position = self.page_size - SLOT_SIZE
        for slot in range(slot_count):
            offset, length = _SLOT.unpack_from(self.data, position)
            if offset == 0:
                dead.append(slot)
            else:
                live += length
            position -= SLOT_SIZE
        slots: list[int] = []
        for record in records:
            if len(record) > 0xFFFF:
                self._set_header(slot_count, free_ptr)
                raise PageError(
                    f"record of {len(record)} bytes exceeds u16 length"
                )
            new_dir_bytes = 0 if dead else SLOT_SIZE
            dir_start = self.page_size - SLOT_SIZE * slot_count
            if dir_start - HEADER_SIZE - live < len(record) + new_dir_bytes:
                break
            if dir_start - new_dir_bytes - free_ptr < len(record):
                # compact() reads the header, so persist the running
                # counters first; it preserves slot numbers and the
                # dead-slot queue.
                self._set_header(slot_count, free_ptr)
                self.compact()
                free_ptr = self._free_ptr
            offset = free_ptr
            self.data[offset : offset + len(record)] = record
            if dead:
                slot = dead.popleft()
            else:
                slot = slot_count
                slot_count += 1
            free_ptr = offset + len(record)
            live += len(record)
            _SLOT.pack_into(
                self.data,
                self.page_size - SLOT_SIZE * (slot + 1),
                offset,
                len(record),
            )
            slots.append(slot)
        self._set_header(slot_count, free_ptr)
        return slots

    def read(self, slot: int) -> bytes:
        """Return the record stored in ``slot``; raises on a dead slot."""
        offset, length = self._slot_entry(slot)
        if offset == 0:
            raise PageError(f"slot {slot} is deleted")
        return bytes(self.data[offset : offset + length])

    def delete(self, slot: int) -> None:
        """Mark a slot dead (space reclaimed by lazy compaction)."""
        offset, _length = self._slot_entry(slot)
        if offset == 0:
            raise PageError(f"slot {slot} is already deleted")
        self._set_slot_entry(slot, 0, 0)

    def is_live(self, slot: int) -> bool:
        """True when ``slot`` holds a live record."""
        return self._slot_entry(slot)[0] != 0

    def records(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(slot, record)`` for every live record."""
        for slot in range(self.slot_count):
            offset, length = self._slot_entry(slot)
            if offset != 0:
                yield slot, bytes(self.data[offset : offset + length])

    @property
    def live_count(self) -> int:
        """Number of live records."""
        return self.summary()[1]

    def compact(self) -> None:
        """Squeeze out holes left by deletions; slot numbers are preserved."""
        live = [
            (slot, self.read(slot))
            for slot in range(self.slot_count)
            if self.is_live(slot)
        ]
        write_ptr = HEADER_SIZE
        for slot, record in live:
            self.data[write_ptr : write_ptr + len(record)] = record
            self._set_slot_entry(slot, write_ptr, len(record))
            write_ptr += len(record)
        self._set_header(self.slot_count, write_ptr)
