"""Store templating: populate once, open once, clone for free.

Every figure sweep rebuilds the same node-local stores for every sweep
point — the dominant setup cost.  A :class:`StoreTemplate` freezes a
fully populated store together with everything opening or scanning it
would compute — heap pages, keyword-index postings, record count,
per-page free bytes, every page's records decoded, and per keyword the
records that carry it — and :meth:`StoreTemplate.instantiate` hands
back a clone that computes none of it again.  The clone is backed by a
copy-on-write :class:`SnapshotDisk` (the immutable page images are
shared between every clone, a page is only copied when some clone
writes to it) and gets its own buffer manager and access statistics.
Its index reads the template's postings in place until its first write
copies them; its scans serve a page from the template's decoded tuple
for as long as the page's ``HeapFile.page_version`` is still 0, and
until the first write a keyword scan takes its matches straight from
the template's per-keyword records.

What is shared is deeply read-only (tuples, frozensets, mapping
proxies, frozen records with ``bytes`` / ``str`` leaves), and what is
simulated does not move: the clone's open and every scan still book
one pin and unpin of every page in ascending order — in bulk, through
:meth:`~repro.storm.buffer.BufferManager.touch` — so a clone is
observationally identical to a store freshly populated with the same
objects — same record ids, same postings, same free-space map, same
buffer residency, recency and ``AccessStats`` — and figures built on
clones produce bit-identical series (``tests/storm/test_template.py``,
``tests/storm/test_clone_scan.py``).  When its pages fit its pool the
buffer only counts that run, and builds the frames and copies the page
images at the clone's first write or first access that is not a
whole-store run; the free-space tree is copied ready-built.  An open
that is then only scanned is a handful of objects over the shared
pages.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from types import MappingProxyType

from repro.storm.disk import InMemoryDisk
from repro.storm.freespace import FreeSpaceMap
from repro.storm.heapfile import RecordId
from repro.storm.page import SlottedPage
from repro.storm.replacement import ReplacementStrategy
from repro.storm.store import Entries, StorM, decode_page

#: Registry capacity; oldest entries are evicted first.  Experiments key
#: templates by content digest, and one figure needs at most a few dozen
#: distinct (corpus, node, size) combinations at a time.
REGISTRY_CAPACITY = 128

_REGISTRY: dict[str, "StoreTemplate"] = {}


def cached_template(key: str) -> "StoreTemplate | None":
    """The registered template for ``key``, or None."""
    return _REGISTRY.get(key)


def register_template(key: str, template: "StoreTemplate") -> None:
    """Cache ``template`` under ``key``, evicting the oldest past capacity."""
    _REGISTRY[key] = template
    while len(_REGISTRY) > REGISTRY_CAPACITY:
        del _REGISTRY[next(iter(_REGISTRY))]


def clear_templates() -> None:
    """Drop every registered template (tests; memory pressure)."""
    _REGISTRY.clear()


class SnapshotDisk(InMemoryDisk):
    """An in-memory disk seeded from immutable page images.

    The seed pages are shared — every clone of a template points at the
    same ``bytes`` objects.  :meth:`InMemoryDisk.read_page` already
    copies on read and :meth:`InMemoryDisk.write_page` replaces the
    page entry wholesale, so a write in one clone can never reach
    another: copy-on-write without any bookkeeping.
    """

    def __init__(self, pages: Iterable[bytes], page_size: int):
        super().__init__(page_size)
        self._pages = list(pages)  # type: ignore[assignment]


@dataclass(frozen=True)
class StoreTemplate:
    """An immutable snapshot of a populated :class:`StorM` store.

    Everything here is shared by every clone, so everything is
    read-only: tuples, frozensets, mapping proxies, and
    :class:`RecordId` / :class:`~repro.storm.objects.StoredObject`
    values that are frozen down to their ``bytes`` / ``str`` leaves.
    """

    pages: tuple[bytes, ...]
    page_size: int
    index_snapshot: Mapping[str, frozenset[RecordId]]
    record_count: int
    #: per page: bytes free after compaction (the ``FreeSpaceMap`` entry)
    free_bytes: tuple[int, ...]
    #: the ``FreeSpaceMap`` segment tree over ``free_bytes``, built once
    #: for every clone's map to copy
    free_tree: tuple[int, ...]
    #: per page: its live records, decoded once for every clone's scans
    decoded_pages: tuple[Entries, ...]
    #: per keyword: the records carrying it, in heap order — what a full
    #: keyword scan of an unwritten clone matches
    keyword_entries: Mapping[str, Entries]

    @classmethod
    def from_store(cls, store: StorM) -> "StoreTemplate":
        """Snapshot ``store`` (flushes it first; the store stays usable)."""
        store.flush()
        disk = store.disk
        # All images first, then everything derived from them: decoding
        # page by page between the copies leaves a record-sized hole per
        # page in the allocator (+8 MB resident at 32 paper-scale stores).
        pages = tuple(
            bytes(disk.read_page(page_id)) for page_id in range(disk.num_pages)
        )
        decoded_pages = tuple(
            decode_page(page_id, image) for page_id, image in enumerate(pages)
        )
        keyword_entries: dict[str, list] = {}
        for entries in decoded_pages:
            for entry in entries:
                for keyword in dict.fromkeys(entry[1].keywords):
                    keyword_entries.setdefault(keyword, []).append(entry)
        free_bytes = tuple(SlottedPage(image).summary()[0] for image in pages)
        return cls(
            pages=pages,
            page_size=disk.page_size,
            index_snapshot=MappingProxyType(store.index.snapshot()),
            record_count=store.count,
            free_bytes=free_bytes,
            free_tree=FreeSpaceMap(free_bytes).tree,
            decoded_pages=decoded_pages,
            keyword_entries=MappingProxyType(
                {keyword: tuple(run) for keyword, run in keyword_entries.items()}
            ),
        )

    def instantiate(
        self,
        pool_size: int = 512,
        strategy: ReplacementStrategy | None = None,
    ) -> StorM:
        """A fresh store over shared pages, with its own buffer pool.

        The clone's ``HeapFile`` open books a pin of every page in
        ascending order — the same residency and recency a
        just-populated store ends with, deferred as one counted run — and
        takes the free-space map (a copy of the template's tree), record
        count, postings and decoded records from the template instead of
        deriving them from the pages again.
        """
        return StorM(
            disk=SnapshotDisk(self.pages, self.page_size),
            pool_size=pool_size,
            strategy=strategy,
            template=self,
        )
