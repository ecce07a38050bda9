"""The StorM facade: what a BestPeer node programs against.

Composes disk + buffer manager + heap file + keyword index behind the
small API the paper's StorM agent needs: store keyword-tagged objects,
look them up by record id, and search by keyword — either through the
inverted index or by the full object scan the paper's agent performs
("the agent makes a comparison for each object stored in the
Shared-StorM database with its query").

Search results carry ``objects_examined`` and a buffer-stats delta so
the simulation layer can convert real buffer behaviour into simulated
agent service time.  A full scan books one pin and unpin of every page
in ascending order; an unwritten template clone books them as one run
(:meth:`~repro.storm.buffer.BufferManager.touch`) and takes its matches
from the template's per-keyword records instead of comparing every
object, with the same counts, matches and order.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import PageError, StorageClosedError, StormError
from repro.storm.buffer import AccessStats, BufferManager
from repro.storm.disk import InMemoryDisk
from repro.storm.freespace import FreeSpaceMap
from repro.storm.heapfile import HeapFile, RecordId
from repro.storm.index import KeywordIndex
from repro.storm.objects import StoredObject, normalize_keyword
from repro.storm.page import SlottedPage
from repro.storm.replacement import ReplacementStrategy

if TYPE_CHECKING:
    from repro.storm.template import StoreTemplate

#: One page's decoded records, in slot order.
Entries = Sequence[tuple[RecordId, StoredObject]]


def decode_page(page_id: int, data: bytes | bytearray) -> Entries:
    """Every live record of one page image, decoded (an immutable tuple)."""
    return tuple(
        (RecordId(page_id, slot), StoredObject.decode(record))
        for slot, record in SlottedPage(data).records()
    )


@dataclass
class ScoredSearchResult:
    """Outcome of one *scored* keyword search at one node.

    Matches are ``(score, rid, object)`` triples ordered best-first:
    score descending, ties broken by heap order (page id, then slot) so
    any two stores holding the same records rank them identically —
    the deterministic order the in-network top-k merge depends on.
    """

    keyword: str
    matches: list[tuple[float, RecordId, StoredObject]] = field(
        init=False, default_factory=list
    )
    #: how many stored objects were compared against the query
    objects_examined: int = field(init=False, default=0)
    #: buffer activity caused by this search
    io: AccessStats = field(init=False, default_factory=AccessStats)
    #: matches cut by the ``k`` bound (scored, then never surfaced)
    truncated: int = field(init=False, default=0)

    @property
    def answer_bytes(self) -> int:
        """Total payload bytes across surfaced matches."""
        return sum(obj.size for _, _, obj in self.matches)

    @property
    def scores(self) -> list[float]:
        """The surfaced scores, best first."""
        return [score for score, _, _ in self.matches]


def _settle_scored(
    result: ScoredSearchResult,
    scored: list[tuple[float, RecordId, StoredObject]],
    k: int | None,
) -> None:
    """Order ``scored`` best-first and apply the ``k`` bound.

    Shared by the index and scan paths so both rank (and truncate)
    identically; the sort is stable over input already in heap order,
    so equal scores keep their (page, slot) tie-break.
    """
    scored.sort(key=lambda match: -match[0])
    if k is not None and len(scored) > k:
        result.truncated = len(scored) - k
        del scored[k:]
    result.matches = scored


def _check_k(k: int | None) -> None:
    if k is not None and k < 1:
        raise StormError(f"scored search needs k >= 1 or None, got {k}")


@dataclass
class SearchResult:
    """Outcome of one keyword search at one node."""

    keyword: str
    matches: list[tuple[RecordId, StoredObject]] = field(
        init=False, default_factory=list
    )
    #: how many stored objects were compared against the query
    objects_examined: int = field(init=False, default=0)
    #: buffer activity caused by this search
    io: AccessStats = field(init=False, default_factory=AccessStats)

    @property
    def match_count(self) -> int:
        return len(self.matches)

    @property
    def answer_bytes(self) -> int:
        """Total payload bytes across matches."""
        return sum(obj.size for _, obj in self.matches)


class StorM:
    """A node-local in-memory object store with keyword search.

    A store opened without a disk or template holds nothing to read, so
    until its first write it reads through one set of empty parts that
    every such store shares (and nothing ever changes), and builds its
    own on the first :meth:`put`, :meth:`put_many`, :meth:`delete`,
    :meth:`get`, :meth:`vacuum`, :meth:`flush` or :meth:`close`.  An
    idle node's store is then one object, not a dozen.
    """

    def __init__(
        self,
        disk: InMemoryDisk | None = None,
        pool_size: int = 512,
        strategy: ReplacementStrategy | None = None,
        template: StoreTemplate | None = None,
    ):
        """``template`` is what a prototype already knew about ``disk``'s
        pages (:meth:`StoreTemplate.instantiate` passes both): postings,
        free bytes, record count and decoded records are taken from it
        instead of being recomputed from the pages."""
        self._closed = False
        self.scan_cache_hits = 0
        self.scan_cache_misses = 0
        self._pool_size = pool_size
        self._strategy = strategy
        # Plain attributes in one order on every path: a per-instance
        # probe or descriptor here slows every attribute read in the scans.
        self._owns_parts = disk is not None or template is not None
        if self._owns_parts:
            self._open(disk if disk is not None else InMemoryDisk(), template)
        else:
            self.disk = _EMPTY_DISK
            self._scan_cache = _EMPTY_SCAN_CACHE
            self._template = None
            self.buffer = _EMPTY_BUFFER
            self.heap = _EMPTY_HEAP
            self.index = _EMPTY_INDEX

    def _open(self, disk: InMemoryDisk, template: StoreTemplate | None) -> None:
        self.disk = disk
        # page_id -> (page version, decoded records).  Every scan still
        # books every page in the buffer — the simulated I/O accounting is
        # untouched — only the CPU-side decode is reused.
        self._scan_cache: dict[int, tuple[int, Entries]] = {}
        # What a prototype knew about these pages: its decoded records are
        # valid for a page until the page's version leaves 0, its postings
        # and per-keyword matches until the first write.
        self._template = template
        self.buffer = BufferManager(
            disk, pool_size=self._pool_size, strategy=self._strategy
        )
        summary = None
        if template is not None:
            free_space = FreeSpaceMap.prebuilt(template.free_bytes, template.free_tree)
            summary = (free_space, template.record_count)
        self.heap = HeapFile(self.buffer, summary)
        self.index = KeywordIndex()
        if template is not None:
            # A store template carries the prototype's postings, so a
            # clone skips the decode-everything heap rescan, and reads
            # them in place until its first write.
            self.index.load_snapshot(template.index_snapshot)
        elif self.heap.record_count:
            self.index.rebuild(
                (rid, StoredObject.decode(record).keywords)
                for rid, record in self.heap.scan()
            )

    def _own_parts(self) -> None:
        """Trade the shared empty parts for this store's own, before a write."""
        self._owns_parts = True
        self._open(InMemoryDisk(), None)

    # -- mutation ----------------------------------------------------------------

    def put(self, keywords: Iterable[str], payload: bytes) -> RecordId:
        """Store a new sharable object; returns its record id."""
        self._check_writable()
        obj = StoredObject(tuple(keywords), bytes(payload))
        rid = self.heap.insert(obj.encode())
        self.index.add(rid, obj.keywords)
        return rid

    def put_many(
        self, items: Iterable[tuple[Sequence[str], bytes]]
    ) -> list[RecordId]:
        """Store a batch of ``(keywords, payload)`` objects in one pass.

        The bulk path packs records page-at-a-time with deferred
        free-space accounting (:meth:`HeapFile.insert_many`) and updates
        the keyword index in one batch; record ids, index contents,
        search results, and buffer statistics are bit-identical to a
        :meth:`put` loop.
        """
        self._check_writable()
        objs = [
            StoredObject(tuple(keywords), bytes(payload))
            for keywords, payload in items
        ]
        records = [obj.encode() for obj in objs]
        # An oversized record leaves a :meth:`put` loop half done:
        # everything before it stored *and indexed*.  Split there so
        # the failure state matches exactly.
        bad = next(
            (
                i
                for i, record in enumerate(records)
                if len(record) > self.heap.max_record_size
            ),
            None,
        )
        prefix = records if bad is None else records[:bad]
        rids = self.heap.insert_many(prefix)
        self.index.insert_many(
            zip(rids, (obj.keywords for obj in objs)), normalized=True
        )
        if bad is not None:
            raise PageError(
                f"record of {len(records[bad])} bytes exceeds max "
                f"{self.heap.max_record_size} for this page size"
            )
        return rids

    def delete(self, rid: RecordId) -> None:
        """Remove an object (and its index postings)."""
        self._check_writable()
        obj = self.get(rid)
        self.heap.delete(rid)
        self.index.remove(rid, obj.keywords)

    # -- lookup ------------------------------------------------------------------

    def get(self, rid: RecordId) -> StoredObject:
        """Fetch one object by record id."""
        self._check_writable()
        return StoredObject.decode(self.heap.read(rid))

    def scan(self) -> Iterator[tuple[RecordId, StoredObject]]:
        """Yield every stored object in page order."""
        for entries in self._scan_pages():
            yield from entries

    def _scan_pages(self) -> Iterator[Entries]:
        """Yield each page's decoded records, in page order.

        The one loop behind :meth:`scan`, :meth:`grep` and the keyword
        scans of a written store.
        Pages whose contents have not changed since they were last
        decoded (checked via :meth:`HeapFile.page_version`) reuse those
        objects instead of re-parsing every record: a template clone's
        untouched pages come decoded with the template, the rest from
        this store's own cache.  Each page is pinned and unpinned
        exactly as an uncached scan would, so buffer hit/miss statistics
        — and therefore simulated I/O cost — are identical.
        """
        self._check_open()
        heap = self.heap
        buffer = heap.buffer
        shared = self._template.decoded_pages if self._template is not None else ()
        shared_count = len(shared)
        for page_id in range(heap.page_count):
            version = heap.page_version(page_id)
            data = buffer.pin(page_id)
            try:
                if version == 0 and page_id < shared_count:
                    entries = shared[page_id]
                else:
                    cached = self._scan_cache.get(page_id)
                    fresh = cached is not None and cached[0] == version
                    entries = cached[1] if fresh else None
                if entries is not None:
                    self.scan_cache_hits += 1
                else:
                    self.scan_cache_misses += 1
                    entries = decode_page(page_id, data)
                    self._scan_cache[page_id] = (version, entries)
            finally:
                buffer.unpin(page_id)
            yield entries

    def _clone_scan(self, needle: str) -> Entries | None:
        """A full keyword scan answered by the template, or None once written.

        Until its first write a template clone holds exactly the
        template's records, so the records tagged ``needle`` come from the
        template in heap order — what comparing every object finds — and
        the buffer books the scan's pin and unpin of every page as one
        :meth:`BufferManager.touch`, each page a scan-cache hit.
        """
        template = self._template
        if template is None or not self.heap.unwritten:
            return None
        page_count = self.heap.page_count
        self.buffer.touch(page_count)
        self.scan_cache_hits += page_count
        return template.keyword_entries.get(needle, ())

    def search(self, keyword: str) -> SearchResult:
        """Keyword search via the inverted index (reads only matching pages).

        Returns the same match set, in the same heap order, as
        :meth:`search_scan` — both paths now rank through the index's
        :meth:`~repro.storm.index.KeywordIndex.lookup_ordered` heap
        ordering, pinned by the consistency battery in
        ``tests/storm/test_scored_search.py``.
        """
        self._check_open()
        before = self.buffer.stats.snapshot()
        result = SearchResult(keyword)
        rids = self.index.lookup_ordered(keyword)
        for rid in rids:
            result.matches.append((rid, self.get(rid)))
        result.objects_examined = len(rids)
        result.io = self.buffer.stats.since(before)
        return result

    def scored_search(self, keyword: str, k: int | None = None) -> ScoredSearchResult:
        """Scored keyword search via the inverted index.

        Each match carries a TF-style score
        (:meth:`~repro.storm.objects.StoredObject.score`: matching-tag
        count over total tag count) and the result is ordered score
        descending with heap-order (page, slot) tie-breaks.  ``k``
        bounds how many matches are surfaced; the cut count is reported
        in :attr:`ScoredSearchResult.truncated`.  Scores come from the
        decoded object's full tag tuple — never from the postings sets,
        which deduplicate and therefore cannot see repeated tags — so
        the index and scan paths score identically.
        """
        self._check_open()
        _check_k(k)
        before = self.buffer.stats.snapshot()
        result = ScoredSearchResult(keyword)
        scored = []
        rids = self.index.lookup_ordered(keyword)
        for rid in rids:
            obj = self.get(rid)
            scored.append((obj.score(keyword), rid, obj))
        result.objects_examined = len(rids)
        _settle_scored(result, scored, k)
        result.io = self.buffer.stats.since(before)
        return result

    def scored_search_scan(
        self, keyword: str, k: int | None = None
    ) -> ScoredSearchResult:
        """Scored keyword search by full scan — the paper's agent walk.

        Same scores, order, and ``k`` semantics as :meth:`scored_search`
        (the consistency battery asserts bit-equality), at the full-scan
        cost profile of :meth:`search_scan`.
        """
        self._check_open()
        _check_k(k)
        before = self.buffer.stats.snapshot()
        result = ScoredSearchResult(keyword)
        needle = normalize_keyword(keyword)
        scored = []
        matches = self._clone_scan(needle)
        if matches is not None:
            result.objects_examined = self.heap.record_count
            for rid, obj in matches:
                keywords = obj.keywords
                scored.append((keywords.count(needle) / len(keywords), rid, obj))
        else:
            for entries in self._scan_pages():
                result.objects_examined += len(entries)
                for rid, obj in entries:
                    count = obj.keywords.count(needle)
                    if count:
                        scored.append((count / len(obj.keywords), rid, obj))
        _settle_scored(result, scored, k)
        result.io = self.buffer.stats.since(before)
        return result

    def search_scan(self, keyword: str) -> SearchResult:
        """Keyword search by full scan — the paper's StorM agent behaviour.

        Every stored object is compared against the query, touching every
        page of the heap file; this is the default query path in the
        reproduction because it is what the evaluated prototype did.  An
        unwritten template clone reports the same matches, counts and
        buffer traffic without the compares (:meth:`_clone_scan`).
        """
        self._check_open()
        if not self.heap.page_count:  # no page to pin, nothing to compare
            return SearchResult(keyword)
        before = self.buffer.stats.snapshot()
        result = SearchResult(keyword)
        needle = normalize_keyword(keyword)
        matches = self._clone_scan(needle)
        if matches is not None:
            result.objects_examined = self.heap.record_count
            result.matches = list(matches)
        else:
            for entries in self._scan_pages():
                result.objects_examined += len(entries)
                for rid, obj in entries:
                    if needle in obj.keywords:
                        result.matches.append((rid, obj))
        result.io = self.buffer.stats.since(before)
        return result

    def grep(self, needle: bytes) -> SearchResult:
        """Content search: objects whose *payload* contains ``needle``.

        This is the finer granularity the paper motivates ("most of the
        existing P2P systems ... ignore the content of the file"): a
        full scan comparing payload bytes, with the same cost accounting
        as :meth:`search_scan`.
        """
        self._check_open()
        needle = bytes(needle)
        before = self.buffer.stats.snapshot()
        result = SearchResult(keyword=f"grep:{needle!r}")
        for entries in self._scan_pages():
            result.objects_examined += len(entries)
            for rid, obj in entries:
                if needle in obj.payload:
                    result.matches.append((rid, obj))
        result.io = self.buffer.stats.since(before)
        return result

    def vacuum(self) -> int:
        """Compact deletion holes in the heap; returns bytes reclaimed."""
        self._check_writable()
        return self.heap.vacuum()

    # -- lifecycle -----------------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of stored objects."""
        return self.heap.record_count

    @property
    def stats(self) -> AccessStats:
        """Cumulative buffer statistics."""
        return self.buffer.stats

    def flush(self) -> None:
        """Write all dirty pages to the disk."""
        self._check_writable()
        self.buffer.flush_all()

    def close(self) -> None:
        """Flush dirty pages and refuse further use (idempotent)."""
        if self._closed:
            return
        if not self._owns_parts:
            self._own_parts()
        self.buffer.flush_all()
        self._closed = True

    def __enter__(self) -> "StorM":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise StorageClosedError("StorM store is closed")

    def _check_writable(self) -> None:
        self._check_open()
        if not self._owns_parts:
            self._own_parts()


# The parts every unwritten store reads through.  Nothing writes them: a
# store trades them for its own before its first write.
_EMPTY_DISK = InMemoryDisk()
_EMPTY_BUFFER = BufferManager(_EMPTY_DISK, pool_size=1)
_EMPTY_HEAP = HeapFile(_EMPTY_BUFFER)
_EMPTY_INDEX = KeywordIndex()
_EMPTY_SCAN_CACHE: dict[int, tuple[int, Entries]] = {}
