"""Query lifecycle at the initiating node.

A :class:`QueryHandle` accumulates the answers that flow straight back
from responders, with arrival timestamps (the raw material for the
paper's response-rate and answer-quantity figures), and — once the
query is *finished* — yields the per-candidate observations the
reconfiguration strategy ranks.

Completion is externally decided: a P2P node cannot know when the last
answer has arrived ("the users have no idea of which peers will be
providing the answers"), so either the application calls
``node.finish_query`` (experiments use an oracle), or the node finishes
the query automatically after a quiet period.  The baselines' handles
are :class:`ArrivalLog` subclasses with the same outcome surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agents.messages import AnswerMessage
from repro.agents.topk import TopKDigest
from repro.errors import QueryError
from repro.ids import BPID, QueryId
from repro.storm.heapfile import RecordId
from repro.storm.objects import normalize_keyword
from repro.storm.store import ScoredSearchResult, SearchResult


@dataclass
class ArrivalLog:
    """A baseline's query at its initiator: each result message as
    ``(arrival time, responder name, answer count)``, in arrival order."""

    keyword: str
    issued_at: float
    arrivals: list[tuple[float, str, int]] = field(init=False, default_factory=list)

    @property
    def network_answer_count(self) -> int:
        return sum(count for _, _, count in self.arrivals)

    @property
    def responders(self) -> set[str]:
        return {responder for _, responder, _ in self.arrivals}

    @property
    def completion_time(self) -> float | None:
        """Time from issue to the last received result message."""
        if not self.arrivals:
            return None
        return self.arrivals[-1][0] - self.issued_at


@dataclass
class QueryHandle:
    """One outstanding (or finished) query at its initiator."""

    query_id: QueryId
    keyword: str
    issued_at: float
    #: network answers in arrival order
    answers: list[AnswerMessage] = field(init=False, default_factory=list)
    #: simulated arrival time of each answer (parallel to ``answers``)
    arrival_times: list[float] = field(init=False, default_factory=list)
    #: result of searching the initiator's own store (if configured)
    local_result: SearchResult | None = field(init=False, default=None)
    #: in-network top-k bound this query ran with (None = exhaustive)
    top_k: int | None = None
    #: scored local-store result (top-k queries; replaces local_result)
    local_scored: ScoredSearchResult | None = field(init=False, default=None)
    #: digests from hops whose every match was dominated in-network
    digests: list[TopKDigest] = field(init=False, default_factory=list)
    #: arrival time of each digest (parallel to ``digests``)
    digest_times: list[float] = field(init=False, default_factory=list)
    #: matches terminated in-network because the current k-th score
    #: dominated them (reported by answers and digests alike)
    dominated_dropped: int = field(init=False, default=0)
    finished: bool = field(init=False, default=False)
    finished_at: float | None = field(init=False, default=None)
    #: True when some responses were knowingly lost (the answer set is
    #: partial but still returned — graceful degradation, never silence)
    degraded: bool = field(init=False, default=False)
    #: degradation cause -> occurrence count (fetch-timeout, data-timeout,
    #: suspect-peer-skipped, ...)
    drop_causes: dict[str, int] = field(init=False, default_factory=dict)
    #: answers were replayed from the initiator's result cache — no
    #: agents travelled, no network traffic was spent on this query
    served_from_cache: bool = field(init=False, default=False)

    # -- accumulation (called by the node) -----------------------------------------

    def record_answer(self, answer: AnswerMessage, now: float) -> None:
        if self.finished:
            raise QueryError(f"{self.query_id} is finished; late answer dropped")
        self.answers.append(answer)
        self.arrival_times.append(now)
        # ScoredAnswers report how many of their hop's matches the
        # in-transit top-k killed; plain answers have no such counter.
        self.dominated_dropped += getattr(answer, "dominated_dropped", 0)

    def record_digest(self, digest: TopKDigest, now: float) -> None:
        """Record a hop whose matches were all dominated in-network.

        Digests are liveness plus accounting, not answers: they carry
        no items, so they join neither ``answers`` nor the strategy's
        observations — but they do reset the quiet period (the hop is
        demonstrably alive and still working the query).
        """
        if self.finished:
            raise QueryError(f"{self.query_id} is finished; late digest dropped")
        self.digests.append(digest)
        self.digest_times.append(now)
        self.dominated_dropped += digest.dominated_dropped

    def mark_degraded(self, cause: str) -> None:
        """Record that part of this query's answer set was lost.

        The query still completes with whatever arrived; ``degraded``
        plus the per-cause counters tell the application (and the eval
        reports) that the numbers are a lower bound.
        """
        self.degraded = True
        self.drop_causes[cause] = self.drop_causes.get(cause, 0) + 1

    def mark_finished(self, now: float) -> None:
        if self.finished:
            raise QueryError(f"{self.query_id} is already finished")
        self.finished = True
        self.finished_at = now

    # -- results -----------------------------------------------------------------------

    @property
    def responders(self) -> set[BPID]:
        """Every node that returned at least one answer."""
        return {answer.responder for answer in self.answers}

    @property
    def network_answer_count(self) -> int:
        """Total answers from the network (excludes the local store)."""
        return sum(answer.answer_count for answer in self.answers)

    @property
    def distinct_answer_count(self) -> int:
        """Network answers deduplicated by object content.

        With RF > 1 the owner *and* its replica holders each answer, so
        :attr:`network_answer_count` double-counts replicated objects.
        This counts each distinct ``(keywords, size, payload)`` identity
        once, making RF > 1 recall directly comparable to RF = 1 — on a
        fault-free network the two counts are equal.  (Two genuinely
        different objects with identical tags, size, and payload — or
        identical tags and size in metadata mode — merge; the corpora
        the figures use give every object a distinct keyword, so the
        approximation is exact there.)
        """
        seen: set[tuple] = set()
        for answer in self.answers:
            for item in answer.items:
                seen.add((item.keywords, item.size, item.payload))
        return len(seen)

    @property
    def last_arrival(self) -> float | None:
        """Arrival time of the most recent answer or digest (None
        before any) — digests count as activity for quiet periods."""
        latest = self.arrival_times[-1] if self.arrival_times else None
        if self.digest_times and (latest is None or self.digest_times[-1] > latest):
            return self.digest_times[-1]
        return latest

    @property
    def completion_time(self) -> float | None:
        """Time from issue to the last received answer."""
        if self.last_arrival is None:
            return None
        return self.last_arrival - self.issued_at

    def top_answers(
        self, k: int | None = None
    ) -> list[tuple[float, BPID, RecordId]]:
        """The global top-k view: best (score, holder, rid) triples.

        Merges the local-store result with every network answer,
        re-scoring unscored (exhaustive) items from their keyword tags
        — the same TF model :meth:`~repro.storm.objects.StoredObject.score`
        uses — so exhaustive and top-k runs are directly comparable.
        Ordered by the :class:`~repro.agents.topk.TopKEntry` sort key
        and truncated to ``k`` (default: the query's own ``top_k``;
        None returns every entry, ranked).
        """
        if k is None:
            k = self.top_k
        needle = normalize_keyword(self.keyword)
        merged: dict[tuple[BPID, RecordId], float] = {}
        origin = self.query_id.origin
        if self.local_scored is not None:
            for score, rid, _obj in self.local_scored.matches:
                merged[(origin, rid)] = score
        elif self.local_result is not None:
            for rid, obj in self.local_result.matches:
                merged[(origin, rid)] = obj.score(self.keyword)
        for answer in self.answers:
            for item in answer.items:
                score = getattr(item, "score", None)
                if score is None:
                    count = item.keywords.count(needle)
                    score = count / len(item.keywords) if count else 0.0
                key = (answer.responder, item.rid)
                if score > merged.get(key, -1.0):
                    merged[key] = score
        ranked = sorted(
            (
                (score, holder, rid)
                for (holder, rid), score in merged.items()
            ),
            key=lambda entry: (
                -entry[0],
                entry[1].liglo_id,
                entry[1].node_id,
                entry[2].page_id,
                entry[2].slot,
            ),
        )
        return ranked if k is None else ranked[:k]

    def arrivals(self) -> list[tuple[float, AnswerMessage]]:
        """(arrival time, answer) pairs in arrival order."""
        return list(zip(self.arrival_times, self.answers))
