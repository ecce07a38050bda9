"""Owner-driven replica placement, invalidation, and hot-object caching.

One :class:`ReplicationManager` rides inside every
:class:`~repro.core.node.BestPeerNode` and plays both protocol roles:

* **Owner**: on share it ranks candidate holders (its LIGLO-suggested
  direct peers first — lowest timeout run, then highest lifetime answer
  count — then peers rediscovered through answers) and runs the
  offer/accept/push handshake until ``rf - 1`` extra copies exist.
  Records whose per-record query-hit EWMA crosses the hot threshold are
  promoted to ``hot_rf`` copies.  Reshare and delete send versioned
  :class:`~repro.replication.messages.ReplicaInvalidate` frames to every
  holder.
* **Holder**: accepted pushes land in a private replica StorM store
  (never the node's own sharable store, so owner-side statistics and
  search byte-charges are untouched), indexed under the owner's record
  id and version.  Deletes tombstone the version so a late or replayed
  push can never resurrect a retired record; reshares trigger a lazy
  read-repair — an ordinary out-of-network fetch of the replacement.

Replica answers reuse the node's whole existing answer path: the
:class:`~repro.replication.agent.ReplicatedSearchAgent` searches the
replica store alongside the primary one, and reported replica rids get
the high page-id bit set so they never collide with the holder's own
records (and so ``fetch`` can route them back to the replica store).

With ``rf=1`` and no cache the manager never sends a frame, touches a
store, or perturbs any byte series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.ids import BPID
from repro.net.address import IPAddress
from repro.net.requests import PendingRequests
from repro.replication.cache import ResultCache
from repro.replication.messages import (
    PROTO_REPLICA_ACCEPT,
    PROTO_REPLICA_INVALIDATE,
    PROTO_REPLICA_OFFER,
    PROTO_REPLICA_PUSH,
    ReplicaAccept,
    ReplicaInvalidate,
    ReplicaOffer,
    ReplicaPush,
    ReplicaRecord,
)
from repro.storm.heapfile import RecordId
from repro.storm.objects import normalize_keyword
from repro.storm.store import SearchResult, StorM
from repro.errors import StormError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.node import BestPeerNode
    from repro.core.query import QueryHandle
    from repro.net.host import Packet

#: High bit of the 32-bit page id, set on rids a holder reports for
#: *replica* matches.  Primary heap files never reach 2**31 pages, so a
#: flagged rid can never collide with one of the holder's own records —
#: the initiator's dedup and the fetch path both stay unambiguous.
REPLICA_PAGE_BIT = 0x8000_0000

#: EWMA smoothing of per-record query hits: each hit adds 1 and the
#: history decays by ``1 - EWMA_ALPHA``, so the level approaches
#: ``1 / EWMA_ALPHA`` under sustained hits.
EWMA_ALPHA = 0.5
#: The hit level that marks a record hot; with :data:`EWMA_ALPHA` it
#: trips on the second consecutive hitting query.
HOT_THRESHOLD = 1.5

#: The hot records of a manager that has promoted none.
_NO_RECORDS: frozenset[RecordId] = frozenset()

#: Rejoined-peer memory: how many recently-heard-from non-peers the
#: manager remembers as placement candidates and address refreshers.
_LAST_SEEN_LIMIT = 64


def is_replica_rid(rid: RecordId) -> bool:
    """True when ``rid`` advertises a replica-store record."""
    return bool(rid.page_id & REPLICA_PAGE_BIT)


def replica_store_rid(rid: RecordId) -> RecordId:
    """The holder-local replica-store rid behind an advertised rid."""
    return RecordId(rid.page_id & ~REPLICA_PAGE_BIT, rid.slot)


@dataclass
class _HolderCopy:
    """One replica this node holds, keyed by ``(owner, owner rid)``."""

    version: int
    store_rid: RecordId
    keywords: tuple[str, ...]


@dataclass
class ReplicationManager:
    """Both halves of the replication protocol for one node."""

    node: "BestPeerNode"

    def __post_init__(self) -> None:
        self.policy = self.node.config.replication
        self.cache: ResultCache | None = (
            ResultCache(self.policy.cache_capacity) if self.policy.caches else None
        )
        # -- owner side -----------------------------------------------------
        #: current version of each live shared record
        self._versions: dict[RecordId, int] = {}
        #: last version a now-retired rid was shared under (slot reuse safety)
        self._retired_versions: dict[RecordId, int] = {}
        #: rid -> holder bpid -> last known holder address
        self._holders: dict[RecordId, dict[BPID, IPAddress]] = {}
        self._requests: PendingRequests | None = None
        #: per-record query-hit EWMA (hotness signal)
        self._ewma: dict[RecordId, float] = {}
        #: records already promoted to ``hot_rf`` copies
        self._hot: frozenset[RecordId] = _NO_RECORDS
        #: rids shared before the node joined; placed on flush_pending()
        self._pending_share: tuple[RecordId, ...] = ()
        # -- holder side ----------------------------------------------------
        self._store: StorM | None = None
        self._copies: dict[tuple[BPID, RecordId], _HolderCopy] = {}
        self._by_store_rid: dict[RecordId, tuple[BPID, RecordId]] = {}
        #: (owner, rid) -> highest deleted version; pushes at or below it
        #: are dropped, so a deleted record can never be resurrected
        self._tombstones: dict[tuple[BPID, RecordId], int] = {}
        self._owner_addresses: dict[BPID, IPAddress] = {}
        # -- rejoin memory (suspicion/liveness interplay fix) ---------------
        #: recently-heard-from nodes beyond the direct peer table; an
        #: evicted-and-backfilled suspect that rejoins and answers again
        #: lands here, so it is rediscoverable as a placement target and
        #: its stale holder addresses get refreshed
        self._last_seen: dict[BPID, IPAddress] = {}
        # -- counters (surface through node.statistics()) -------------------
        self.replica_answers = 0
        self.replicas_pushed = 0
        self.offers_sent = 0
        self.offers_declined = 0
        self.invalidations = 0
        self.stale_repairs = 0

    # -- lifecycle ---------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True when the policy asks for anything."""
        return self.policy.active

    @property
    def requests(self) -> PendingRequests:
        """Outstanding offers; context: (holder bpid, address, offered rids).
        Built on the first offer: an inactive policy never makes one."""
        if self._requests is None:
            self._requests = PendingRequests(self.node.host)
        return self._requests

    @property
    def replicas_held(self) -> int:
        """Replica copies this node currently holds for other owners."""
        return len(self._copies)

    def bind(self) -> None:
        """Attach the four protocol handlers to the node's host."""
        host = self.node.host
        host.bind(PROTO_REPLICA_OFFER, self._on_offer)
        host.bind(PROTO_REPLICA_ACCEPT, self._on_accept)
        host.bind(PROTO_REPLICA_PUSH, self._on_push)
        host.bind(PROTO_REPLICA_INVALIDATE, self._on_invalidate)

    def statistics(self) -> dict[str, int]:
        """Replication counters, merged into ``node.statistics()``."""
        cache, requests = self.cache, self._requests
        return {
            "replicas_held": self.replicas_held,
            "replica_answers": self.replica_answers,
            "replicas_pushed": self.replicas_pushed,
            "replica_offers": self.offers_sent,
            "replica_declines": self.offers_declined,
            "invalidations": self.invalidations,
            "stale_repairs": self.stale_repairs,
            "pending_offers": len(requests.pending("offer")) if requests else 0,
            "cache_hits": cache.hits if cache is not None else 0,
            "cache_misses": cache.misses if cache is not None else 0,
            "cache_evictions": cache.evictions if cache is not None else 0,
            "cache_invalidations": cache.invalidations if cache is not None else 0,
        }

    # -- owner: placement --------------------------------------------------------

    def on_share(self, rids: Sequence[RecordId]) -> None:
        """A batch of records just landed in the node's sharable store."""
        if not self.enabled:
            return
        for rid in rids:
            if rid not in self._versions:
                self._versions[rid] = self._retired_versions.get(rid, 0) + 1
        if self.policy.rf <= 1:
            return
        if self.node.engine is None or not self.node.host.online:
            self._pending_share += tuple(rids)
            return
        self._place(tuple(rids), self.policy.rf - 1)

    def flush_pending(self) -> None:
        """Place records that were shared before the node joined."""
        if not self._pending_share or not self.enabled:
            return
        if self.node.engine is None or not self.node.host.online:
            return
        pending, self._pending_share = self._pending_share, ()
        live = tuple(rid for rid in pending if rid in self._versions)
        if live:
            self._place(live, self.policy.rf - 1)

    def _candidates(self) -> list[tuple[BPID, IPAddress]]:
        """Holder candidates, best first.

        Direct peers (the LIGLO-suggested neighbour set) ranked by
        lowest consecutive-timeout run then highest lifetime answer
        count; suspects are skipped.  Nodes remembered from answers but
        not currently peers follow, in stable BPID order — this is what
        lets an evicted-and-backfilled suspect that rejoined be chosen
        again.
        """
        node = self.node
        seen: set[BPID] = set()
        if node.engine is not None:
            seen.add(node.bpid)
        ranked: list[tuple[BPID, IPAddress]] = []
        peers = sorted(
            node.peers.live_entries(),
            key=lambda peer: (
                peer.timeouts,
                -peer.total_answers,
                peer.bpid.liglo_id,
                peer.bpid.node_id,
            ),
        )
        for peer in peers:
            if peer.bpid in seen:
                continue
            seen.add(peer.bpid)
            ranked.append((peer.bpid, peer.address))
        extras = sorted(
            (
                (bpid, address)
                for bpid, address in self._last_seen.items()
                if bpid not in seen and bpid not in node.peers
            ),
            key=lambda item: (item[0].liglo_id, item[0].node_id),
        )
        ranked.extend(extras)
        return ranked

    def _place(self, rids: tuple[RecordId, ...], extra_copies: int) -> None:
        """Offer each rid to enough candidates to reach ``extra_copies``.

        Holders are recorded optimistically at offer time (and rolled
        back on decline or timeout) so overlapping share bursts do not
        over-place; an invalidate racing ahead of its push is harmless
        because the holder tombstones first.
        """
        if extra_copies < 1 or not self.enabled:
            return
        candidates = self._candidates()
        if not candidates:
            return
        assignments: dict[tuple[BPID, IPAddress], list[RecordId]] = {}
        for rid in rids:
            holders = self._holders.setdefault(rid, {})
            need = extra_copies - len(holders)
            for bpid, address in candidates:
                if need <= 0:
                    break
                if bpid in holders:
                    continue
                holders[bpid] = address
                assignments.setdefault((bpid, address), []).append(rid)
                need -= 1
        for (bpid, address), batch in assignments.items():
            self._offer(bpid, address, tuple(batch))

    def _offer(
        self, bpid: BPID, address: IPAddress, rids: tuple[RecordId, ...]
    ) -> None:
        from repro.core.node import FETCH_TIMEOUT  # the node module imports this one

        node = self.node
        count = 0
        total = 0
        for rid in rids:
            try:
                obj = node.storm.get(rid)
            except StormError:
                continue
            count += 1
            total += obj.size
        if count == 0:
            self._rollback(bpid, rids)
            return

        def timed_out() -> None:
            self._rollback(bpid, rids)
            node._charge_timeout("replica", bpid)
            self._resolve_and_reoffer(bpid, address, rids)

        self.offers_sent += 1
        self.requests.send(
            "offer",
            lambda token: node.host.send(
                address,
                PROTO_REPLICA_OFFER,
                ReplicaOffer(token=token, owner=node.bpid, record_count=count, total_bytes=total),
            ),
            FETCH_TIMEOUT,
            context=(bpid, address, rids),
            retry=False,  # the re-offer after a resolve is a new request
            on_timeout=timed_out,
        )
        node.tracer.record(
            node.sim.now,
            "replication",
            "offer",
            node=node.name,
            holder=str(bpid),
            records=count,
        )

    def _rollback(self, bpid: BPID, rids: tuple[RecordId, ...]) -> None:
        for rid in rids:
            holders = self._holders.get(rid)
            if holders is not None:
                holders.pop(bpid, None)

    def _resolve_and_reoffer(
        self, bpid: BPID, stale: IPAddress, rids: tuple[RecordId, ...]
    ) -> None:
        """An offer timed out; the candidate may simply have moved.

        Peers reconnect under fresh IPs (Section 2), so a candidate
        drawn from the last-seen ledger — an evicted-and-backfilled
        suspect, say — is often alive behind a stale address.  Its
        registered LIGLO is recoverable from the BPID, so ask it for
        the current IP and re-offer once if the peer moved.  A resolve
        that returns the address we already tried means the peer is
        genuinely unreachable, which bounds the retry: each extra
        attempt needs a *new* address.
        """
        if not self.enabled or self.node.engine is None:
            return

        def resolved(reply) -> None:
            if reply is None or not reply.online or reply.address is None:
                return
            if reply.address == stale:
                return
            self.note_peer_alive(bpid, reply.address)
            live = tuple(rid for rid in rids if rid in self._versions)
            if not live:
                return
            for rid in live:
                self._holders.setdefault(rid, {})[bpid] = reply.address
            self._offer(bpid, reply.address, live)

        self.node.liglo.resolve(bpid, resolved)

    def _on_accept(self, packet: "Packet") -> None:
        accept: ReplicaAccept = packet.payload
        offer = self.requests.settle(accept.token, "offer")
        if offer is None:
            return
        offer.timer.cancel()
        bpid, address, rids = offer.context
        node = self.node
        node.peers.note_alive(accept.holder, node.sim.now)
        if not accept.accepted:
            self.offers_declined += 1
            self._rollback(bpid, rids)
            return
        records = []
        for rid in rids:
            version = self._versions.get(rid)
            if version is None:  # deleted while the offer was in flight
                continue
            try:
                obj = node.storm.get(rid)
            except StormError:
                continue
            records.append(
                ReplicaRecord(
                    rid=rid, version=version, keywords=obj.keywords, payload=obj.payload
                )
            )
        if not records:
            self._rollback(bpid, rids)
            return
        assert node.host.address is not None
        self.replicas_pushed += len(records)
        node.host.send(
            address,
            PROTO_REPLICA_PUSH,
            ReplicaPush(
                token=accept.token,
                owner=node.bpid,
                owner_address=node.host.address,
                records=tuple(records),
            ),
        )
        node.tracer.record(
            node.sim.now,
            "replication",
            "push",
            node=node.name,
            holder=str(bpid),
            records=len(records),
        )

    # -- owner: invalidation -----------------------------------------------------

    def on_delete(self, rid: RecordId, keywords: Sequence[str]) -> None:
        """The record at ``rid`` was just deleted from the primary store."""
        normalized = tuple(normalize_keyword(keyword) for keyword in keywords)
        if self.cache is not None:
            self.cache.invalidate_keywords(normalized)
        self._ewma.pop(rid, None)
        self._hot -= {rid}
        version = self._versions.pop(rid, None)
        holders = self._holders.pop(rid, None)
        if version is None:
            return
        self._retired_versions[rid] = version
        if not holders:
            return
        invalidate = ReplicaInvalidate(
            owner=self.node.bpid,
            rid=rid,
            version=version,
            delete=True,
            keywords=normalized,
        )
        for address in holders.values():
            self.invalidations += 1
            self.node.host.send(address, PROTO_REPLICA_INVALIDATE, invalidate)

    def on_reshare(
        self,
        old_rid: RecordId,
        new_rid: RecordId,
        old_keywords: Sequence[str],
        new_keywords: Sequence[str],
    ) -> None:
        """``old_rid`` was republished as ``new_rid`` with fresh content.

        Every holder of the old copy is told to drop it and lazily
        read-repair from the replacement; versions bump so a stale push
        can never win over the repair.
        """
        normalized_old = tuple(normalize_keyword(keyword) for keyword in old_keywords)
        normalized_new = tuple(normalize_keyword(keyword) for keyword in new_keywords)
        if self.cache is not None:
            self.cache.invalidate_keywords(normalized_old + normalized_new)
        self._ewma.pop(old_rid, None)
        self._hot -= {old_rid}
        old_version = self._versions.pop(old_rid, None)
        holders = self._holders.pop(old_rid, None)
        if old_version is None:
            # The old record predates replication being active; treat the
            # replacement as a fresh share.
            self.on_share((new_rid,))
            return
        self._retired_versions[old_rid] = old_version
        new_version = (
            max(old_version, self._retired_versions.get(new_rid, 0)) + 1
        )
        self._versions[new_rid] = new_version
        if not holders:
            if self.policy.rf > 1:
                self._place((new_rid,), self.policy.rf - 1)
            return
        self._holders[new_rid] = dict(holders)
        invalidate = ReplicaInvalidate(
            owner=self.node.bpid,
            rid=old_rid,
            version=new_version,
            delete=False,
            keywords=normalized_old,
            repair_rid=new_rid,
            repair_keywords=normalized_new,
        )
        for address in holders.values():
            self.invalidations += 1
            self.node.host.send(address, PROTO_REPLICA_INVALIDATE, invalidate)

    # -- owner: hotness ----------------------------------------------------------

    def note_query_hits(self, rids: Iterable[RecordId]) -> None:
        """A query matched these primary records here; bump their EWMAs.

        Each hit contributes 1 and decays the history by
        ``1 - EWMA_ALPHA``, so the level approaches ``1 / EWMA_ALPHA``
        under sustained hits; crossing :data:`HOT_THRESHOLD` promotes
        the record to ``hot_rf`` copies.
        """
        policy = self.policy
        if policy.hot_rf is None or policy.hot_rf <= 1:
            return
        for rid in rids:
            level = self._ewma.get(rid, 0.0) * (1.0 - EWMA_ALPHA) + 1.0
            self._ewma[rid] = level
            if level < HOT_THRESHOLD or rid in self._hot:
                continue
            self._hot |= {rid}
            if rid not in self._versions:
                self._versions[rid] = self._retired_versions.get(rid, 0) + 1
            self.node.tracer.record(
                self.node.sim.now,
                "replication",
                "hot-promote",
                node=self.node.name,
                rid=str(rid),
            )
            self._place((rid,), policy.hot_rf - 1)

    # -- holder: protocol handlers -----------------------------------------------

    def _on_offer(self, packet: "Packet") -> None:
        offer: ReplicaOffer = packet.payload
        node = self.node
        if node.engine is None:
            return  # not joined: cannot identify ourselves; offer expires
        accepted = self.policy.active
        reason = "" if accepted else "replication disabled"
        node.host.send(
            packet.src,
            PROTO_REPLICA_ACCEPT,
            ReplicaAccept(
                token=offer.token, holder=node.bpid, accepted=accepted, reason=reason
            ),
        )

    def _ensure_store(self) -> StorM:
        if self._store is None:
            self._store = StorM()
        return self._store

    def _on_push(self, packet: "Packet") -> None:
        push: ReplicaPush = packet.payload
        self._owner_addresses[push.owner] = push.owner_address
        stored_keywords: set[str] = set()
        for record in push.records:
            key = (push.owner, record.rid)
            tombstone = self._tombstones.get(key)
            if tombstone is not None and record.version <= tombstone:
                continue  # deleted meanwhile; never resurrect
            existing = self._copies.get(key)
            if existing is not None:
                if record.version <= existing.version:
                    continue
                self._drop_copy(key, existing)
            copy = self._store_copy(key, record.version, record.keywords, record.payload)
            stored_keywords.update(copy.keywords)
        if stored_keywords:
            # Publishing the replicated keywords into the hint directory
            # lets hint-routed queries find the holder even with the
            # owner gone — the "queries find replicas through existing
            # routing machinery" half of resilience.
            self.node._publish_hints(sorted(stored_keywords))

    def _store_copy(
        self,
        key: tuple[BPID, RecordId],
        version: int,
        keywords: Sequence[str],
        payload: bytes,
    ) -> _HolderCopy:
        store = self._ensure_store()
        store_rid = store.put(keywords, payload)
        copy = _HolderCopy(
            version=version,
            store_rid=store_rid,
            keywords=tuple(normalize_keyword(keyword) for keyword in keywords),
        )
        self._copies[key] = copy
        self._by_store_rid[store_rid] = key
        return copy

    def _drop_copy(self, key: tuple[BPID, RecordId], copy: _HolderCopy) -> None:
        assert self._store is not None
        self._store.delete(copy.store_rid)
        self._by_store_rid.pop(copy.store_rid, None)
        self._copies.pop(key, None)

    def _on_invalidate(self, packet: "Packet") -> None:
        invalidate: ReplicaInvalidate = packet.payload
        if self.cache is not None:
            touched = tuple(
                normalize_keyword(keyword)
                for keyword in (*invalidate.keywords, *invalidate.repair_keywords)
            )
            self.cache.invalidate_keywords(touched)
        key = (invalidate.owner, invalidate.rid)
        copy = self._copies.get(key)
        if invalidate.delete:
            previous = self._tombstones.get(key, 0)
            self._tombstones[key] = max(previous, invalidate.version)
            if copy is not None and copy.version <= invalidate.version:
                self._drop_copy(key, copy)
            return
        if copy is not None:
            if copy.version >= invalidate.version:
                return  # already repaired (or a newer push landed first)
            self._drop_copy(key, copy)
        if invalidate.repair_rid is None:
            return
        repair_keywords = tuple(
            normalize_keyword(keyword) for keyword in invalidate.repair_keywords
        )
        if not repair_keywords:
            return  # nothing to index the repaired copy under
        repair_key = (invalidate.owner, invalidate.repair_rid)
        tombstone = self._tombstones.get(repair_key)
        if tombstone is not None and invalidate.version <= tombstone:
            return
        owner_address = self._owner_addresses.get(invalidate.owner, packet.src)
        self._read_repair(
            repair_key, invalidate.version, repair_keywords, owner_address
        )

    def _read_repair(
        self,
        key: tuple[BPID, RecordId],
        version: int,
        keywords: tuple[str, ...],
        owner_address: IPAddress,
    ) -> None:
        """Lazily fetch a replacement record — an ordinary download."""
        owner, rid = key

        def repaired(reply) -> None:
            if reply is None or reply.payload is None or not reply.found:
                return
            tombstone = self._tombstones.get(key)
            if tombstone is not None and version <= tombstone:
                return  # deleted while the repair was in flight
            existing = self._copies.get(key)
            if existing is not None and existing.version >= version:
                return
            if existing is not None:
                self._drop_copy(key, existing)
            copy = self._store_copy(key, version, keywords, reply.payload)
            self.stale_repairs += 1
            self.node._publish_hints(sorted(copy.keywords))
            self.node.tracer.record(
                self.node.sim.now,
                "replication",
                "read-repair",
                node=self.node.name,
                owner=str(owner),
                rid=str(rid),
            )

        self.node.fetch(owner_address, rid, repaired)

    # -- holder: answering -------------------------------------------------------

    def replica_search(self, keyword: str, use_index: bool) -> SearchResult | None:
        """Search the replica store (None when there is nothing to search)."""
        if self._store is None or not self._copies:
            return None
        if use_index:
            return self._store.search(keyword)
        return self._store.search_scan(keyword)

    def replica_answer_rid(self, store_rid: RecordId) -> RecordId:
        """The rid a replica match is advertised under (high bit set)."""
        return RecordId(store_rid.page_id | REPLICA_PAGE_BIT, store_rid.slot)

    def self_answer(self, query_id, keyword: str, mode: str):
        """The initiator's own replica store answering its own query.

        Travelling agents never execute at the initiator, so without
        this a node that *holds* the only surviving copy of an object
        would not see it in its own answer set.  Returns a synthetic
        :class:`~repro.agents.messages.AnswerMessage` from self (zero
        hops, no network traffic) or None when nothing matches; the
        reconfiguration strategy already ignores self-answers.
        """
        result = self.replica_search(keyword, False)
        if result is None or not result.matches:
            return None
        from repro.agents.messages import AnswerItem, AnswerMessage

        node = self.node
        items = tuple(
            AnswerItem(
                rid=self.replica_answer_rid(rid),
                keywords=obj.keywords,
                size=obj.size,
                payload=obj.payload if mode == "direct" else None,
            )
            for rid, obj in result.matches
        )
        self.replica_answers += len(items)
        assert node.host.address is not None
        return AnswerMessage(
            query_id=query_id,
            responder=node.bpid,
            responder_address=node.host.address,
            hops=0,
            items=items,
        )

    def replica_payload(self, rid: RecordId) -> bytes | None:
        """Payload behind an advertised replica rid (fetch fallback)."""
        if self._store is None or not is_replica_rid(rid):
            return None
        try:
            return self._store.get(replica_store_rid(rid)).payload
        except StormError:
            return None

    # -- initiator: result cache -------------------------------------------------

    def cached_answers(self, keyword: str):
        """Cached answer tuple for ``keyword`` (None on miss/disabled)."""
        if self.cache is None:
            return None
        return self.cache.get(normalize_keyword(keyword))

    def cache_answers(self, keyword: str, answers: tuple) -> None:
        """A finished exhaustive query populates the result cache."""
        if self.cache is None or not answers:
            return
        self.cache.put(normalize_keyword(keyword), answers)

    # -- liveness interplay --------------------------------------------------------

    def note_peer_alive(self, bpid: BPID, address: IPAddress) -> None:
        """An answer (or fetch reply) proved ``bpid`` is alive at ``address``.

        Fixes the suspicion/liveness interplay for replication: a holder
        that was suspected, evicted, and backfilled out of the peer
        table used to become undiscoverable forever.  Remembering it
        here keeps it selectable as a future holder and refreshes the
        address on every holder record the owner keeps for it.
        """
        if not self.policy.active:
            return
        node = self.node
        if node.engine is not None and bpid == node.bpid:
            return
        self._last_seen.pop(bpid, None)
        self._last_seen[bpid] = address
        while len(self._last_seen) > _LAST_SEEN_LIMIT:
            self._last_seen.pop(next(iter(self._last_seen)))
        for holders in self._holders.values():
            if bpid in holders:
                holders[bpid] = address

    # -- introspection (tests, demos) ----------------------------------------------

    def holders_of(self, rid: RecordId) -> dict[BPID, IPAddress]:
        """Current holder map of one owned record (copy)."""
        return dict(self._holders.get(rid, {}))

    def held_copies(self) -> dict[tuple[BPID, RecordId], int]:
        """(owner, rid) -> version of every replica held here (copy)."""
        return {key: copy.version for key, copy in self._copies.items()}
