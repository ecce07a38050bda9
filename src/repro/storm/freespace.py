"""First-fit free-space index over heap-file pages.

:class:`HeapFile` steers insertions to the *lowest-numbered* page with
room.  A naive realisation scans every page's free-space entry per
insert — O(pages), which turns bulk loading into O(pages²).  This module
provides the same first-fit answer from a max segment tree: point
updates and "first page id >= start with at least N free bytes" queries
are both O(log pages), and the answer is *identical* to the linear scan
(page ids ascend in allocation order, exactly like the dict the heap
file used to iterate).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence


class FreeSpaceMap:
    """Max segment tree over per-page free bytes with first-fit queries."""

    __slots__ = ("_free", "_cap", "_tree")

    def __init__(self, free: Iterable[int] = ()) -> None:
        """``free`` bulk-loads pages 0..n-1: one build, not n updates."""
        self._free: list[int] = list(free)
        self._cap = 1
        self._tree = [0, 0]
        if self._free:
            self._rebuild()

    @classmethod
    def prebuilt(cls, free: Sequence[int], tree: Sequence[int]) -> "FreeSpaceMap":
        """The map over ``free`` whose segment tree (:attr:`tree`) is
        ``tree``: both are copied, nothing is rebuilt."""
        space = cls()
        space._free = list(free)
        space._tree = list(tree)
        space._cap = len(space._tree) // 2
        return space

    @property
    def tree(self) -> tuple[int, ...]:
        """The segment tree, leaves from index ``len(tree) // 2`` on."""
        return tuple(self._tree)

    def __len__(self) -> int:
        return len(self._free)

    def __contains__(self, page_id: int) -> bool:
        return 0 <= page_id < len(self._free)

    def get(self, page_id: int, default: int = 0) -> int:
        """Free bytes recorded for ``page_id`` (``default`` when untracked)."""
        if 0 <= page_id < len(self._free):
            return self._free[page_id]
        return default

    def items(self) -> Iterator[tuple[int, int]]:
        """(page_id, free bytes) pairs in ascending page order."""
        return enumerate(self._free)

    def set(self, page_id: int, free: int) -> None:
        """Record ``page_id``'s free bytes (pages may be appended)."""
        if page_id < 0:
            raise ValueError(f"page id must be >= 0, got {page_id}")
        if page_id >= len(self._free):
            # Pages are allocated sequentially; tolerate gaps defensively.
            self._free.extend([0] * (page_id + 1 - len(self._free)))
            if len(self._free) > self._cap:
                self._free[page_id] = free
                self._rebuild()
                return
        self._free[page_id] = free
        index = self._cap + page_id
        self._tree[index] = free
        index //= 2
        while index:
            self._tree[index] = max(self._tree[2 * index], self._tree[2 * index + 1])
            index //= 2

    def _rebuild(self) -> None:
        cap = self._cap
        while cap < len(self._free):
            cap *= 2
        self._cap = cap
        tree = [0] * (2 * cap)
        tree[cap : cap + len(self._free)] = self._free
        for index in range(cap - 1, 0, -1):
            tree[index] = max(tree[2 * index], tree[2 * index + 1])
        self._tree = tree

    def first_at_least(self, needed: int, start: int = 0) -> int | None:
        """Smallest page id >= ``start`` with >= ``needed`` free bytes."""
        if start < 0:
            start = 0
        if start >= len(self._free) or self._tree[1] < needed:
            return None
        return self._descend(1, 0, self._cap, needed, start)

    def _descend(
        self, node: int, lo: int, hi: int, needed: int, start: int
    ) -> int | None:
        if hi <= start or lo >= len(self._free) or self._tree[node] < needed:
            return None
        if hi - lo == 1:
            return lo
        mid = (lo + hi) // 2
        found = self._descend(2 * node, lo, mid, needed, start)
        if found is not None:
            return found
        return self._descend(2 * node + 1, mid, hi, needed, start)
