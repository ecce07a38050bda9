"""In-network top-k query processing with score-based early termination.

A plain BestPeer flood returns *every* matching answer to the initiator
— the traffic pattern that collapses at scale.  Following Akbarinia,
Pacitti & Valduriez's fully-distributed top-k processing for
unstructured P2P systems, a top-k query instead carries a bounded
:class:`TopKAccumulator` inside the travelling agent's state: each hop
merges its local scored hits with the in-transit partial result, ships
only the hits that still rank in the current top-k straight back to the
initiator, and lets everything dominated by the current k-th score die
at that hop.  The accumulator (at most ``k`` score/holder/rid entries,
no payloads) *is* the piggybacked score threshold: the forwarded clone's
state carries it to every next hop.

The merge operator is a bounded top-k union under the strict total
order :attr:`TopKEntry.sort_key` ``(-score, holder, rid)``.  Because
distinct entries always have distinct keys, the top-k of any entry
multiset is unique — which makes the merge commutative, associative,
idempotent, and invariant under arbitrary partition and permutation of
the answer stream (proved by hypothesis in
``tests/agents/test_topk_merge.py``).  Dominance pruning is safe
because every entry an accumulator holds was already shipped to the
initiator by the hop that produced it: dropping a dominated answer can
never lose a record that belongs in the true top-k.

Exhaustive behaviour is fully preserved: with ``BestPeerConfig.top_k``
left ``None`` queries dispatch the exhaustive
:class:`~repro.agents.storm_agent.StorMSearchAgent`.

See ``docs/TOPK.md`` for the scoring model and merge semantics.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.agents.agent import Agent
from repro.errors import AgentError
from repro.ids import BPID, QueryId
from repro.net.address import IPAddress
from repro.storm.heapfile import RecordId

# ---------------------------------------------------------------------------
# The merge operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TopKEntry:
    """One scored hit's identity: who holds which record, scoring what.

    Entries are the currency of the in-network merge — small enough to
    piggyback on every forwarded clone (no payloads), yet enough for
    the initiator to fetch any record out-of-network afterwards.
    """

    score: float
    holder: BPID
    rid: RecordId

    @property
    def sort_key(self) -> tuple[float, str, int, int, int]:
        """Strict total order: best score first, ties broken on the
        holder's BPID then the record id, so distinct entries never
        compare equal and the top-k of any entry set is unique."""
        return (
            -self.score,
            self.holder.liglo_id,
            self.holder.node_id,
            self.rid.page_id,
            self.rid.slot,
        )


class TopKAccumulator:
    """A bounded, mergeable top-k set of :class:`TopKEntry`.

    Holds at most ``k`` entries, ordered best-first by
    :attr:`TopKEntry.sort_key`.  :meth:`add` is the whole merge
    operator: an entry ranking within the current top-k displaces the
    worst entry; a dominated entry is rejected.  Because rejection only
    depends on the (monotonically tightening) k-th key, adds commute
    and the final state is independent of arrival order.
    """

    __slots__ = ("k", "_entries", "_keys", "_idents")

    def __init__(self, k: int, entries: Sequence[TopKEntry] = ()):
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise AgentError(f"top-k accumulator needs k >= 1, got {k!r}")
        self.k = k
        self._entries: list[TopKEntry] = []
        self._keys: list[tuple] = []
        self._idents: set[tuple[BPID, RecordId]] = set()
        for entry in entries:
            self.add(entry)

    def add(self, entry: TopKEntry) -> bool:
        """Merge one entry; True when it is in the top-k afterwards.

        Re-adding a present entry is a no-op (idempotence); an entry
        dominated by the current k-th key is rejected and — since the
        threshold only ever tightens — would be rejected by every later
        state too, so a False here is final.
        """
        ident = (entry.holder, entry.rid)
        if ident in self._idents:
            return True
        key = entry.sort_key
        if len(self._entries) == self.k and key > self._keys[-1]:
            return False
        index = bisect.bisect_left(self._keys, key)
        self._keys.insert(index, key)
        self._entries.insert(index, entry)
        self._idents.add(ident)
        if len(self._entries) > self.k:
            evicted = self._entries.pop()
            self._keys.pop()
            self._idents.discard((evicted.holder, evicted.rid))
            return evicted is not entry
        return True

    def merge(self, entries: "TopKAccumulator | Sequence[TopKEntry]") -> None:
        """Fold another accumulator (or plain entries) into this one."""
        for entry in entries:
            self.add(entry)

    @property
    def entries(self) -> tuple[TopKEntry, ...]:
        """Current entries, best-first."""
        return tuple(self._entries)

    @property
    def threshold(self) -> float | None:
        """The k-th best score once full (None while under-filled):
        any hit scoring below it is dominated and dies at this hop."""
        if len(self._entries) < self.k:
            return None
        return self._entries[-1].score

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[TopKEntry]:
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TopKAccumulator):
            return NotImplemented
        return self.k == other.k and self._entries == other._entries

    def __repr__(self) -> str:
        return f"TopKAccumulator(k={self.k}, entries={self._entries!r})"

    # -- travelling state ------------------------------------------------------

    def as_state(self) -> list[tuple[float, str, int, int, int]]:
        """Plain-data form (what rides inside an agent envelope)."""
        return [
            (
                entry.score,
                entry.holder.liglo_id,
                entry.holder.node_id,
                entry.rid.page_id,
                entry.rid.slot,
            )
            for entry in self._entries
        ]

    @classmethod
    def from_state(
        cls, k: int, state: Sequence[Sequence] = ()
    ) -> "TopKAccumulator":
        """Inverse of :meth:`as_state`."""
        return cls(
            k,
            [
                TopKEntry(score, BPID(liglo_id, node_id), RecordId(page_id, slot))
                for score, liglo_id, node_id, page_id, slot in state
            ],
        )


# ---------------------------------------------------------------------------
# Wire messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ScoredItem:
    """One surviving match, as reported to the initiator — an
    :class:`~repro.agents.messages.AnswerItem` plus its score."""

    rid: RecordId
    keywords: tuple[str, ...]
    size: int
    score: float
    #: present in MODE_DIRECT, None in MODE_METADATA
    payload: bytes | None = None


@dataclass(frozen=True, slots=True)
class ScoredAnswer:
    """One responder's *surviving* hits for one top-k query.

    Shaped like :class:`~repro.agents.messages.AnswerMessage` (same
    attribute surface: ``answer_count``, ``answer_bytes``, ...) so the
    initiating node's answer accounting and reconfiguration strategies
    consume it unchanged; it additionally reports how many local
    matches the accumulator's threshold killed at this hop.
    """

    query_id: QueryId
    responder: BPID
    responder_address: IPAddress
    #: how far (in overlay hops) the responder was from the initiator
    hops: int
    items: tuple[ScoredItem, ...]
    #: local matches dominated by the in-transit top-k (died here)
    dominated_dropped: int = 0

    @property
    def answer_count(self) -> int:
        return len(self.items)

    @property
    def answer_bytes(self) -> int:
        """Total object bytes represented (payloads or reported sizes)."""
        return sum(item.size for item in self.items)


@dataclass(frozen=True, slots=True)
class TopKDigest:
    """What a hop with *no* surviving hits tells the initiator.

    Carries the merged partial top-k (score/holder/rid only — a few
    dozen bytes) instead of the dominated payloads, so the initiator
    still observes the hop's liveness and its dominated-answer count
    without paying exhaustive answer traffic.
    """

    query_id: QueryId
    responder: BPID
    responder_address: IPAddress
    hops: int
    k: int
    entries: tuple[TopKEntry, ...]
    dominated_dropped: int = 0


# ---------------------------------------------------------------------------
# The agent
# ---------------------------------------------------------------------------


class TopKSearchAgent(Agent):
    """Keyword search returning only hits still in the global top-k.

    The travelling twin of
    :class:`~repro.agents.storm_agent.StorMSearchAgent`: at each host it
    runs a *scored* search, merges the local hits into the accumulator
    it arrived with, replies with the survivors (or a
    :class:`TopKDigest` when everything was dominated), and — because
    ``forward_merges_state`` is set — the engine forwards its clones
    *after* execution with the refreshed accumulator, piggybacking the
    tightened score threshold onto every next hop.
    """

    #: engine hook: clone-forward after execute, from refreshed state
    forward_merges_state = True

    def __init__(
        self,
        keyword: str,
        k: int,
        mode: str = "direct",
        use_index: bool = False,
        entries: Sequence[Sequence] = (),
    ):
        if mode not in ("direct", "metadata"):
            raise ValueError(f"mode must be 'direct' or 'metadata', got {mode!r}")
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ValueError(f"top-k search needs k >= 1, got {k!r}")
        self.keyword = keyword
        self.k = k
        self.mode = mode
        self.use_index = use_index
        #: accumulator state (plain tuples) — see TopKAccumulator.as_state
        self.entries = [tuple(entry) for entry in entries]

    def execute(self, context) -> None:
        # Imports live inside execute so the shipped source is
        # self-contained at any destination host.
        from repro.agents.engine import PROTO_ANSWER
        from repro.agents.topk import (
            ScoredAnswer,
            ScoredItem,
            TopKAccumulator,
            TopKDigest,
            TopKEntry,
        )

        accumulator = TopKAccumulator.from_state(self.k, self.entries)
        if self.use_index:
            result = context.storm.scored_search(self.keyword, self.k)
        else:
            # The paper's behaviour: compare every stored object.
            result = context.storm.scored_search_scan(self.keyword, self.k)
        context.charge_search(result)
        # Matches beyond the local k-th are dominated by this host's own
        # better hits, so the store-level truncation already counts them.
        dominated = result.truncated
        survivors = []
        for score, rid, obj in result.matches:
            entry = TopKEntry(score, context.host_id, rid)
            if accumulator.add(entry):
                payload = obj.payload if self.mode == "direct" else None
                survivors.append(
                    ScoredItem(
                        rid=rid,
                        keywords=obj.keywords,
                        size=obj.size,
                        score=score,
                        payload=payload,
                    )
                )
            else:
                dominated += 1
        # The refreshed accumulator travels on with the forwarded clones.
        self.entries = accumulator.as_state()
        if survivors:
            context.send(
                context.initiator_address,
                PROTO_ANSWER,
                ScoredAnswer(
                    query_id=context.query_id,
                    responder=context.host_id,
                    responder_address=context.host_address,
                    hops=context.hops,
                    items=tuple(survivors),
                    dominated_dropped=dominated,
                ),
            )
        elif dominated:
            context.send(
                context.initiator_address,
                PROTO_ANSWER,
                TopKDigest(
                    query_id=context.query_id,
                    responder=context.host_id,
                    responder_address=context.host_address,
                    hops=context.hops,
                    k=self.k,
                    entries=accumulator.entries,
                    dominated_dropped=dominated,
                ),
            )
        # No matches at all: stay silent, like the exhaustive agent.


# -- data-plane wire registrations (type id block 0x10xx) ----------------------
#
# Scored answers carry payloads, digests ride the same answer path; both
# belong on the data plane next to AnswerMessage (0x1001).

from repro.net import codec as wire

_SCORED_ITEM_CODEC = wire.composite(
    "scored-item",
    (
        ("rid", wire.RECORD_ID_CODEC),
        ("keywords", wire.seq(wire.STR)),
        ("size", wire.I64),
        ("score", wire.F64),
        ("payload", wire.opt(wire.BYTES)),
    ),
    ScoredItem,
)

_TOPK_ENTRY_CODEC = wire.composite(
    "topk-entry",
    (
        ("score", wire.F64),
        ("holder", wire.BPID_CODEC),
        ("rid", wire.RECORD_ID_CODEC),
    ),
    TopKEntry,
)

SCORED_ANSWER_FIELDS = (
    ("query_id", wire.QUERY_ID_CODEC),
    ("responder", wire.BPID_CODEC),
    # sim IPAddress or live (host, port) — answers cross both runtimes
    ("responder_address", wire.ADDRESS_CODEC),
    ("hops", wire.U32),
    ("items", wire.seq(_SCORED_ITEM_CODEC)),
    ("dominated_dropped", wire.U32),
)

TOPK_DIGEST_FIELDS = (
    ("query_id", wire.QUERY_ID_CODEC),
    ("responder", wire.BPID_CODEC),
    ("responder_address", wire.ADDRESS_CODEC),
    ("hops", wire.U32),
    ("k", wire.U16),
    ("entries", wire.seq(_TOPK_ENTRY_CODEC)),
    ("dominated_dropped", wire.U32),
)


def _sample_scored_answer() -> ScoredAnswer:
    origin = BPID("10.0.0.1", 7)
    return ScoredAnswer(
        query_id=QueryId(origin, 3),
        responder=BPID("10.0.0.5", 11),
        responder_address=IPAddress("10.0.4.9"),
        hops=2,
        items=(
            ScoredItem(
                rid=RecordId(3, 12),
                keywords=("music", "mp3"),
                size=5,
                score=0.5,
                payload=b"notes",
            ),
            ScoredItem(
                rid=RecordId(4, 1),
                keywords=("music",),
                size=9,
                score=1.0,
                payload=None,
            ),
        ),
        dominated_dropped=4,
    )


def _sample_topk_digest() -> TopKDigest:
    origin = BPID("10.0.0.1", 7)
    return TopKDigest(
        query_id=QueryId(origin, 3),
        responder=BPID("10.0.0.6", 13),
        responder_address=IPAddress("10.0.4.10"),
        hops=3,
        k=2,
        entries=(
            TopKEntry(score=1.0, holder=BPID("10.0.0.2", 9), rid=RecordId(1, 4)),
            TopKEntry(score=0.25, holder=BPID("10.0.0.5", 11), rid=RecordId(7, 2)),
        ),
        dominated_dropped=2,
    )


wire.register(
    ScoredAnswer,
    0x1007,
    SCORED_ANSWER_FIELDS,
    sample=_sample_scored_answer,
    plane=wire.DATA,
)
wire.register(
    TopKDigest,
    0x1008,
    TOPK_DIGEST_FIELDS,
    sample=_sample_topk_digest,
    plane=wire.DATA,
)
