"""Query-path result cache: Zipf-hot queries served without a flood.

A bounded LRU from normalized keyword to the answer set a finished
query collected.  A hit replays the cached answers into the new
query's handle at the initiator — zero network traffic, zero agent
executions — which is exactly the repeated-hot-query shape a Zipf
workload produces.

Staleness is handled by invalidation, not expiry: a
:class:`~repro.replication.messages.ReplicaInvalidate` arriving at this
node (and any local reshare/delete) drops every entry sharing a
keyword with the changed record.  Nodes that neither own nor hold a
changed record keep serving their cached copy — the same relaxed
consistency every answer already has between flood and fetch
("the target node may have removed the desired content ... during the
period of delay", Section 2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ReplicationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.agents.messages import AnswerMessage


class ResultCache:
    """Bounded LRU of keyword -> cached answer tuples."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ReplicationError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: insertion-ordered; the first key is the least recently used
        self._entries: dict[str, tuple["AnswerMessage", ...]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, keyword: str) -> bool:
        return keyword in self._entries

    def get(self, keyword: str) -> tuple["AnswerMessage", ...] | None:
        """The cached answers for ``keyword`` (marks it most recent)."""
        answers = self._entries.pop(keyword, None)
        if answers is None:
            self.misses += 1
            return None
        self._entries[keyword] = answers  # re-insert as most recent
        self.hits += 1
        return answers

    def put(self, keyword: str, answers: tuple["AnswerMessage", ...]) -> None:
        """Cache a finished query's answer set under its keyword."""
        self._entries.pop(keyword, None)
        while len(self._entries) >= self.capacity:
            self._entries.pop(next(iter(self._entries)))
            self.evictions += 1
        self._entries[keyword] = answers

    def invalidate_keywords(self, keywords: tuple[str, ...]) -> int:
        """Drop every entry keyed by one of ``keywords``; returns drops."""
        dropped = 0
        for keyword in keywords:
            if self._entries.pop(keyword, None) is not None:
                dropped += 1
        self.invalidations += dropped
        return dropped
