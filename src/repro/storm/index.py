"""In-memory keyword inverted index over heap-file records.

Maps each normalized keyword to the set of :class:`RecordId`s whose
object carries that tag.  The index is a cache: it is rebuilt from a
heap-file scan on open (:meth:`KeywordIndex.rebuild`) and kept current
by the :class:`~repro.storm.store.StorM` facade on every put/delete, so
it never needs its own persistence.  A store template's clone reads
through the template's frozen postings (:meth:`KeywordIndex.load_snapshot`)
until its first write copies them.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Set as AbstractSet

from repro.storm.heapfile import RecordId
from repro.storm.objects import normalize_keyword


class KeywordIndex:
    """keyword -> set of record ids."""

    def __init__(self):
        # Frozensets under a read-only mapping while loaded from a
        # snapshot; sets in this index's own dict from the first write on.
        self._postings: Mapping[str, AbstractSet[RecordId]] = {}
        self._shared = False

    def _writable(self) -> dict[str, set[RecordId]]:
        """This index's own postings, copied from the snapshot on first use."""
        if self._shared:
            self._postings = {
                keyword: set(rids) for keyword, rids in self._postings.items()
            }
            self._shared = False
        return self._postings  # type: ignore[return-value]

    def add(self, rid: RecordId, keywords: Iterable[str]) -> None:
        """Index ``rid`` under every keyword."""
        postings = self._writable()
        for keyword in keywords:
            postings.setdefault(normalize_keyword(keyword), set()).add(rid)

    def insert_many(
        self,
        entries: Iterable[tuple[RecordId, Iterable[str]]],
        normalized: bool = False,
    ) -> None:
        """Batched :meth:`add` over ``(rid, keywords)`` pairs.

        ``normalized=True`` skips re-normalizing keywords that are
        already canonical (e.g. straight off a
        :class:`~repro.storm.objects.StoredObject`, whose constructor
        normalizes) — normalization is idempotent, so the postings are
        identical either way.
        """
        postings = self._writable()
        for rid, keywords in entries:
            for keyword in keywords:
                if not normalized:
                    keyword = normalize_keyword(keyword)
                postings.setdefault(keyword, set()).add(rid)

    def snapshot(self) -> dict[str, frozenset[RecordId]]:
        """An immutable copy of every posting list (for store templates)."""
        return {
            keyword: frozenset(rids) for keyword, rids in self._postings.items()
        }

    def load_snapshot(self, snapshot: Mapping[str, frozenset[RecordId]]) -> None:
        """Replace all postings with a :meth:`snapshot`'s contents.

        The snapshot is read in place, not copied: it must never change,
        and this index copies it on its first write.
        """
        self._postings = snapshot
        self._shared = True

    def remove(self, rid: RecordId, keywords: Iterable[str]) -> None:
        """Drop ``rid`` from every keyword's postings."""
        all_postings = self._writable()
        for keyword in keywords:
            normalized = normalize_keyword(keyword)
            postings = all_postings.get(normalized)
            if postings is None:
                continue
            postings.discard(rid)
            if not postings:
                del all_postings[normalized]

    def lookup(self, keyword: str) -> frozenset[RecordId]:
        """Record ids tagged with ``keyword`` (empty set when absent)."""
        return frozenset(self._postings.get(normalize_keyword(keyword), ()))

    def lookup_ordered(self, keyword: str) -> list[RecordId]:
        """Postings in heap order: page id, then slot.

        This is the order a full heap scan visits the same records, so
        index-backed searches (:meth:`~repro.storm.store.StorM.search`,
        ``scored_search``) and scan-backed searches agree on result
        order by construction — the tie-break order scored top-k
        merging relies on.
        """
        return sorted(
            self._postings.get(normalize_keyword(keyword), ()),
            key=lambda rid: (rid.page_id, rid.slot),
        )

    def rebuild(self, entries: Iterable[tuple[RecordId, Iterable[str]]]) -> None:
        """Discard and reconstruct all postings from ``(rid, keywords)`` pairs."""
        self._postings = {}
        self._shared = False
        for rid, keywords in entries:
            self.add(rid, keywords)

    def keywords(self) -> Iterator[str]:
        """All indexed keywords."""
        return iter(self._postings)

    @property
    def keyword_count(self) -> int:
        return len(self._postings)

    def posting_count(self, keyword: str) -> int:
        """Number of records under ``keyword``."""
        return len(self._postings.get(normalize_keyword(keyword), ()))
