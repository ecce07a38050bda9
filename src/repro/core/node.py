"""The BestPeer node: everything a participant runs.

Wires together one host, its StorM store, the mobile-agent engine, the
LIGLO client, the direct-peer table, and the reconfiguration strategy.

Lifecycle (Section 2):

* :meth:`BestPeerNode.join` — register with a LIGLO server (getting a
  BPID and an initial peer list) and become a participant.
* :meth:`BestPeerNode.leave` / :meth:`BestPeerNode.rejoin` — churn: on
  rejoin the node announces its new IP to its LIGLO and refreshes every
  peer's address through that peer's own LIGLO, dropping peers whose
  LIGLO reports them offline.
* :meth:`BestPeerNode.issue_query` — flood a StorM search agent to the
  direct peers; answers stream straight back.
* :meth:`BestPeerNode.finish_query` — close the query and reconfigure:
  the strategy re-ranks current peers and responders and the node keeps
  the best ``k``.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Callable, Sequence

from repro.agents.agent import Agent
from repro.agents.engine import PROTO_ANSWER, AgentEngine
from repro.agents.envelope import MODE_FLOOD
from repro.agents.messages import MODE_METADATA, AnswerItem, AnswerMessage
from repro.agents.storm_agent import StorMSearchAgent
from repro.agents.topk import TopKDigest, TopKSearchAgent
from repro.core import sharing
from repro.core.config import BestPeerConfig
from repro.core.discovery import (
    PROTO_DISCOVERY_REPORT,
    ContentReport,
    DiscoveryAgent,
    KnowledgeBase,
)
from repro.core.peers import PeerInfo, PeerTable
from repro.core.query import QueryHandle
from repro.core.routing import (
    PeerObservation,
    RoutingStrategy,
    make_routing_strategy,
)
from repro.core.sharing import (
    PROTO_ACTIVE,
    PROTO_ACTIVE_REPLY,
    PROTO_FETCH,
    PROTO_FETCH_REPLY,
    ActiveObject,
    ActiveReply,
    ActiveRequest,
    FetchReply,
    FetchRequest,
    ShareCatalog,
)
from repro.core.shipping import (
    CODE,
    DATA,
    PROTO_DATA_REPLY,
    PROTO_DATA_REQUEST,
    DataReply,
    DataRequest,
    PeerEstimate,
    make_shipping_policy,
)
from repro.errors import AccessDeniedError, BestPeerError, QueryError
from repro.ids import BPID, AgentId, QueryId
from repro.liglo.client import LigloClient, RegistrationResult
from repro.net.address import IPAddress
from repro.net.message import Packet
from repro.net.network import Network
from repro.net.requests import PendingRequests
from repro.replication.agent import ReplicatedSearchAgent
from repro.replication.manager import ReplicationManager
from repro.storm.heapfile import RecordId
from repro.storm.objects import normalize_keyword
from repro.storm.store import StorM
from repro.util.randomness import derive_rng
from repro.util.tracing import NULL_TRACER, Tracer

#: reply protocol -> the request family its replies settle
_REPLY_KINDS = {PROTO_FETCH_REPLY: "fetch", PROTO_ACTIVE_REPLY: "active"}
#: the hint keywords of a node that has published none
_NO_KEYWORDS: frozenset[str] = frozenset()


class BestPeerNode:
    """One participant in a BestPeer network."""

    def __init__(
        self,
        network: Network,
        name: str,
        config: BestPeerConfig | None = None,
        storm: StorM | None = None,
        strategy: RoutingStrategy | None = None,
        tracer: Tracer | None = None,
    ):
        self.config = config if config is not None else BestPeerConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.network = network
        self.name = name
        self.host = network.create_host(name, cpu_threads=self.config.cpu_threads)
        self.sim = network.sim
        self.storm = storm if storm is not None else StorM()
        self.peers = PeerTable(self.config.max_direct_peers)
        self.strategy = (
            strategy
            if strategy is not None
            else make_routing_strategy(self.config.strategy)
        )
        #: jitter stream for every retry this node performs; derived from
        #: the config seed and the node name, so runs replay bit-identically.
        #: Only a retry policy draws from it: without one there is none.
        self._retry_rng = (
            derive_rng(self.config.retry_seed, "retry", name)
            if self.config.retry_policy is not None
            else None
        )
        self.liglo = LigloClient(
            self.host,
            tracer=self.tracer,
            retry_policy=self.config.retry_policy,
            rng=self._retry_rng,
        )
        self._catalog: ShareCatalog | None = None
        self.engine: AgentEngine | None = None
        self._queries: dict[QueryId, QueryHandle] = {}
        self._next_query_serial = 0
        self._requests: PendingRequests | None = None
        self.shipping = make_shipping_policy(self.config.shipping_policy)
        self._estimates: dict[BPID, PeerEstimate] = {}
        self._data_cache: dict[BPID, list] = {}
        #: request timeouts by kind (fetch / active / data / rejoin / replica)
        self.request_timeouts: dict[str, int] = {}
        self.host.bind(PROTO_ANSWER, self._on_answer)
        self.host.bind(PROTO_FETCH, self._on_fetch)
        self.host.bind(PROTO_FETCH_REPLY, self._on_reply)
        self.host.bind(PROTO_ACTIVE, self._on_active)
        self.host.bind(PROTO_ACTIVE_REPLY, self._on_reply)
        self.host.bind(PROTO_DATA_REQUEST, self._on_data_request)
        self.host.bind(PROTO_DATA_REPLY, self._on_data_reply)
        self._knowledge: KnowledgeBase | None = None
        self.host.bind(PROTO_DISCOVERY_REPORT, self._on_discovery_report)
        #: keywords already reported to our LIGLO's hint directory
        self._published_hints: frozenset[str] | set[str] = _NO_KEYWORDS
        #: super-peer routing counters (hint directory consultations)
        self.hint_queries = 0
        self.hint_hits = 0
        self.hint_fallbacks = 0
        #: replica placement, invalidation, and hot-object caching;
        #: inert (no frames, no stores) under the default rf=1 policy
        self.replication = ReplicationManager(self)
        self.replication.bind()
        self.strategy.bind(self)

    # -- state built on first use -----------------------------------------------

    @property
    def requests(self) -> PendingRequests:
        """Outstanding fetch / active / data requests: one table and one
        token counter, so the three families' tokens interleave in send order."""
        if self._requests is None:
            self._requests = PendingRequests(
                self.host, self.config.retry_policy, self._retry_rng
            )
        return self._requests

    @property
    def catalog(self) -> ShareCatalog:
        """The active objects this node shares."""
        if self._catalog is None:
            self._catalog = ShareCatalog()
        return self._catalog

    @property
    def knowledge(self) -> KnowledgeBase:
        """What discovery reports have taught this node about the network."""
        if self._knowledge is None:
            self._knowledge = KnowledgeBase()
        return self._knowledge

    # -- identity & membership -------------------------------------------------

    @property
    def bpid(self) -> BPID:
        """This node's BestPeer id (raises before it has one)."""
        if self.engine is None:
            raise BestPeerError(f"node {self.name} has not joined yet")
        return self.engine.local_bpid

    @property
    def joined(self) -> bool:
        return self.engine is not None

    def join(
        self,
        liglo_addresses: Sequence[IPAddress],
        on_joined: Callable[[RegistrationResult], None] | None = None,
    ) -> None:
        """Register with a LIGLO server and adopt its initial peer list."""
        if self.engine is not None:
            raise BestPeerError(f"node {self.name} already joined")

        def registered(result: RegistrationResult) -> None:
            if result.accepted:
                assert result.bpid is not None
                self._init_engine(result.bpid)
                now = self.sim.now
                for peer_bpid, peer_address in result.peers:
                    if not self.peers.is_full and peer_bpid not in self.peers:
                        self.peers.add(peer_bpid, peer_address, now)
                # Objects shared before the join can now be replicated:
                # the node has an identity and LIGLO-suggested peers.
                self.replication.flush_pending()
            if on_joined is not None:
                on_joined(result)

        self.liglo.register_any(liglo_addresses, registered)

    def _init_engine(self, bpid: BPID) -> None:
        self.engine = AgentEngine(
            self.host,
            bpid,
            services={"storm": self.storm, "node": self},
            costs=self.config.agent_costs,
            get_peers=self._flood_addresses,
            tracer=self.tracer,
        )

    def _flood_addresses(self) -> list[IPAddress]:
        """Relay fan-out: where a flood travelling *through* us goes next.

        The routing strategy shapes the list (ordering, fan-out caps);
        the default strategy behaviour is every direct peer not suspected
        dead, in table order, so in a healthy network floods are
        unchanged until timeouts accumulate.
        Relays have no keyword context (the engine forwards clones
        before executing the agent), so keyword-aware ordering only
        applies at the initiator.
        """
        return self.strategy.flood_targets(None, self.peers.entries())

    def leave(self) -> None:
        """Disconnect from the network (the address lease is released)."""
        self.host.disconnect()

    def rejoin(
        self,
        on_refreshed: Callable[[], None] | None = None,
        on_failed: Callable[[Exception], None] | None = None,
    ) -> None:
        """Reconnect after churn, per Section 2's rejoin protocol.

        The node (1) reconnects under a fresh IP, (2) announces the new
        IP to its own LIGLO, and (3) asks each direct peer's registered
        LIGLO for that peer's current IP, updating or dropping the peer.

        With a retry policy configured, step (2) becomes a *verified*
        announce: it is retried per the backoff schedule, and if the
        LIGLO stays unreachable the whole budget, ``on_failed`` receives
        the :class:`~repro.errors.LigloUnreachableError` (or, without
        ``on_failed``, the error propagates out of the event loop).
        Step (3) then also changes shape: a peer whose LIGLO never
        answers is *kept but charged a timeout* — silence cannot
        distinguish a dead peer from a dead name server — while a LIGLO
        that answers "offline" still drops the peer.
        """
        self.host.connect()
        if self.engine is None:
            if on_refreshed is not None:
                on_refreshed()
            return
        # Objects shared while this node was offline can replicate now
        # that it is reachable again.
        self.replication.flush_pending()
        if self.liglo.bpid is not None:
            if self.config.retry_policy is not None:
                self.liglo.announce_verified(
                    on_ok=lambda: self._refresh_peers(on_refreshed),
                    on_failed=on_failed,
                )
                return
            self.liglo.announce()
        self._refresh_peers(on_refreshed)

    def _refresh_peers(self, on_refreshed: Callable[[], None] | None) -> None:
        pending = len(self.peers)
        if pending == 0:
            if on_refreshed is not None:
                on_refreshed()
            return
        remaining = [pending]  # mutable cell for the closures below

        def resolved(peer_bpid: BPID, reply) -> None:
            if reply is not None and reply.online and reply.address is not None:
                if peer_bpid in self.peers:
                    self.peers.update_address(peer_bpid, reply.address)
                    self.peers.note_alive(peer_bpid, self.sim.now)
            elif reply is None and self.config.retry_policy is not None:
                # The peer's LIGLO never answered (even with retries):
                # keep the peer — it may be fine — but charge a timeout
                # so repeated silence eventually marks it suspect.
                self._charge_timeout("rejoin", peer_bpid)
            elif peer_bpid in self.peers:
                # Peer is offline or its LIGLO vanished: drop it; a later
                # reconfiguration will fill the slot with a fresh peer.
                self.peers.remove(peer_bpid)
                self.tracer.record(
                    self.sim.now, "node", "drop-peer", node=self.name, peer=str(peer_bpid)
                )
            remaining[0] -= 1
            if remaining[0] == 0 and on_refreshed is not None:
                on_refreshed()

        for peer in self.peers.entries():
            self.liglo.resolve(
                peer.bpid,
                lambda reply, peer_bpid=peer.bpid: resolved(peer_bpid, reply),
            )

    # -- liveness ---------------------------------------------------------------

    def _charge_timeout(self, kind: str, bpid: BPID | None) -> None:
        """Count a request timeout and (maybe) turn its peer suspect."""
        self.request_timeouts[kind] = self.request_timeouts.get(kind, 0) + 1
        if bpid is None:
            return
        if self.peers.note_timeout(bpid, self.config.suspect_after):
            self.tracer.record(
                self.sim.now, "node", "peer-suspect", node=self.name, peer=str(bpid)
            )

    def _bpid_for_address(self, address: IPAddress) -> BPID | None:
        """Direct peer currently known at ``address`` (None otherwise)."""
        for peer in self.peers.entries():
            if peer.address == address:
                return peer.bpid
        return None

    @property
    def request_retries(self) -> int:
        """Re-sends by the retry policy (LIGLO's are ``liglo.retries``)."""
        return self._requests.retries if self._requests is not None else 0

    # -- peer management ---------------------------------------------------------

    def add_peer(self, bpid: BPID, address: IPAddress) -> None:
        """Manually add a direct peer (topology setup, experiments)."""
        self.peers.add(bpid, address, self.sim.now)

    def connect_to(self, other: "BestPeerNode") -> None:
        """Convenience: make ``other`` a direct peer of this node."""
        assert other.host.address is not None
        self.add_peer(other.bpid, other.host.address)

    # -- sharing --------------------------------------------------------------------

    def share(self, keywords: Sequence[str], payload: bytes) -> RecordId:
        """Publish a static object into this node's sharable StorM store."""
        rid = self.storm.put(keywords, payload)
        self._publish_hints(keywords)
        self.replication.on_share((rid,))
        return rid

    def share_many(
        self, objects: Sequence[tuple[Sequence[str], bytes]]
    ) -> list[RecordId]:
        """Publish a batch of objects via StorM's bulk-load fast path."""
        rids = self.storm.put_many(objects)
        self._publish_hints(
            [keyword for keywords, _payload in objects for keyword in keywords]
        )
        self.replication.on_share(rids)
        return rids

    def unshare(self, rid: RecordId) -> None:
        """Retire a shared object: delete it and invalidate its replicas.

        Holders tombstone the record's version, so no in-flight or
        replayed replica push can ever resurrect the deleted content.
        """
        obj = self.storm.get(rid)
        self.storm.delete(rid)
        self.replication.on_delete(rid, obj.keywords)

    def reshare(
        self, rid: RecordId, keywords: Sequence[str], payload: bytes
    ) -> RecordId:
        """Republish a shared object with fresh keywords/content.

        The replacement gets a bumped version; every replica holder is
        told its copy went stale and lazily read-repairs from the new
        record (detecting a stale replica costs one invalidate frame,
        repairing it one ordinary out-of-network fetch).
        """
        old = self.storm.get(rid)
        self.storm.delete(rid)
        new_rid = self.storm.put(keywords, payload)
        self._publish_hints(keywords)
        new_keywords = self.storm.get(new_rid).keywords
        self.replication.on_reshare(rid, new_rid, old.keywords, new_keywords)
        return new_rid

    def _publish_hints(self, keywords: Sequence[str]) -> None:
        """Report newly shared keywords to our LIGLO's hint directory.

        Only when hint publishing is on (super-peer routing, or the
        ``publish_hints`` config flag for nodes that feed the directory
        without routing by it), and only for keywords not reported
        before, so repeated sharing costs no extra control traffic.
        """
        if not (self.config.publish_hints or self.strategy.uses_hint_directory):
            return
        if self.liglo.bpid is None or not self.host.online:
            return
        fresh = sorted(
            {normalize_keyword(keyword) for keyword in keywords}
            - self._published_hints
        )
        if not fresh:
            return
        if not self._published_hints:
            self._published_hints = set()
        self._published_hints.update(fresh)
        self.liglo.publish_hints(fresh)

    def share_active(
        self, name: str, data: bytes, element: sharing.ActiveElement
    ) -> ActiveObject:
        """Publish an active object guarded by ``element``."""
        obj = ActiveObject(name, data, element)
        self.catalog.register(obj)
        return obj

    # -- querying --------------------------------------------------------------------

    def issue_query(
        self,
        keyword: str,
        ttl: int | None = None,
        on_answer: Callable[[QueryHandle, AnswerMessage], None] | None = None,
        on_finish: Callable[[QueryHandle], None] | None = None,
        auto_finish_after: float | None = None,
    ) -> QueryHandle:
        """Flood a StorM search agent to the direct peers.

        Answers stream into the returned handle as they arrive.  If
        ``auto_finish_after`` is set, the query self-finishes once no
        answer has arrived for that long; otherwise the caller decides
        when to call :meth:`finish_query`.
        """
        if self.engine is None:
            raise BestPeerError(f"node {self.name} must join before querying")
        query_id = QueryId(self.bpid, self._next_query_serial)
        self._next_query_serial += 1
        top_k = self.config.top_k
        handle = QueryHandle(
            query_id=query_id,
            keyword=keyword,
            issued_at=self.sim.now,
            top_k=top_k,
            on_answer=on_answer,
            on_finish=on_finish,
        )
        self._queries[query_id] = handle
        mode = "metadata" if self.config.result_mode == MODE_METADATA else "direct"
        if top_k is not None:
            if self.config.search_own_store:
                if self.config.use_index:
                    handle.local_scored = self.storm.scored_search(keyword, top_k)
                else:
                    handle.local_scored = self.storm.scored_search_scan(
                        keyword, top_k
                    )
            # Seed the travelling accumulator with the initiator's own
            # top-k, so the threshold starts tightening at hop one.
            seed = [
                (score, self.bpid.liglo_id, self.bpid.node_id, rid.page_id, rid.slot)
                for score, rid, _obj in (
                    handle.local_scored.matches if handle.local_scored else ()
                )
            ]
            agent: Agent = TopKSearchAgent(
                keyword,
                top_k,
                mode=mode,
                use_index=self.config.use_index,
                entries=seed,
            )
        else:
            if self.config.search_own_store:
                if self.config.use_index:
                    handle.local_result = self.storm.search(keyword)
                else:
                    handle.local_result = self.storm.search_scan(keyword)
            cached = self.replication.cached_answers(keyword)
            if cached is not None:
                # Hot-query fast path: replay the cached answer set into
                # the fresh handle — no agents travel, no bytes move.
                self._replay_cached(handle, cached)
                if auto_finish_after is not None:
                    self._arm_auto_finish(handle, auto_finish_after)
                return handle
            if self.replication.enabled and self.replication.policy.replicates:
                # Replica-aware searches ship a different (slightly
                # larger) agent class, so they are dispatched only when
                # the initiator's policy actually places replicas —
                # rf=1 floods stay bit-identical.
                agent = ReplicatedSearchAgent(
                    keyword,
                    mode=mode,
                    use_index=self.config.use_index,
                )
                # If this very node holds a replica of a matching object
                # (agents never execute at the initiator), answer
                # ourselves — zero hops, zero traffic.
                self_answer = self.replication.self_answer(
                    query_id, keyword, mode, self.config.use_index
                )
                if self_answer is not None:
                    handle.record_answer(self_answer, self.sim.now)
            else:
                agent = StorMSearchAgent(
                    keyword,
                    mode=mode,
                    use_index=self.config.use_index,
                )
        for _ in self.peers.suspect_bpids():
            # The flood skips suspected-dead peers: the query still runs,
            # but the caller can see its answer set may be partial.
            handle.mark_degraded("suspect-peer-skipped")
        ttl_value = ttl if ttl is not None else self.config.ttl
        if self.strategy.uses_hint_directory and self.liglo.bpid is not None:
            self._dispatch_with_hints(handle, agent, ttl_value)
        else:
            self._dispatch_flood(handle, agent, ttl_value)
        self.tracer.record(
            self.sim.now,
            "node",
            "query",
            node=self.name,
            query=str(query_id),
            keyword=keyword,
        )
        if auto_finish_after is not None:
            self._arm_auto_finish(handle, auto_finish_after)
        return handle

    def _dispatch_flood(self, handle: QueryHandle, agent: Agent, ttl: int) -> None:
        """Flood the search agent, fan-out shaped by the routing strategy."""
        assert self.engine is not None
        self.engine.dispatch(
            agent,
            query_id=handle.query_id,
            ttl=ttl,
            mode=MODE_FLOOD,
            targets=self.strategy.flood_targets(
                handle.keyword, self.peers.entries()
            ),
        )

    def _dispatch_with_hints(
        self, handle: QueryHandle, agent: Agent, ttl: int
    ) -> None:
        """Super-peer routing: ask our LIGLO who holds the keyword first.

        With hints, the agent ships straight to the holders with TTL 1 —
        no relaying, no duplicate-agent dedup traffic.  Without hints
        (empty directory, LIGLO outage) the query falls back to a plain
        flood, so recall is never worse than flooding.
        """
        self.hint_queries += 1

        def on_hints(reply) -> None:
            if handle.finished or self.engine is None:
                return
            holders = (
                []
                if reply is None
                else [
                    (bpid, address)
                    for bpid, address in reply.holders
                    if bpid != self.bpid
                ]
            )
            if not holders:
                self.hint_fallbacks += 1
                self.tracer.record(
                    self.sim.now, "node", "hint-fallback", node=self.name
                )
                self._dispatch_flood(handle, agent, ttl)
                return
            self.hint_hits += 1
            self.tracer.record(
                self.sim.now,
                "node",
                "hint-route",
                node=self.name,
                holders=len(holders),
            )
            self.engine.dispatch(
                agent,
                query_id=handle.query_id,
                ttl=1,
                mode=MODE_FLOOD,
                targets=[address for _bpid, address in holders],
            )

        self.liglo.fetch_hints(
            normalize_keyword(handle.keyword),
            on_hints,
            timeout=self.config.hint_timeout,
        )

    def dispatch_agent(
        self, agent: Agent, query_id: QueryId | None = None, **kwargs: Any
    ) -> AgentId:
        """Send a custom agent into the network (compute sharing).

        Its answers name a query id on the wire, so when the caller gives
        none, one is minted here as :meth:`issue_query` does.
        """
        if self.engine is None:
            raise BestPeerError(f"node {self.name} must join before dispatching")
        if query_id is None:
            query_id = QueryId(self.bpid, self._next_query_serial)
            self._next_query_serial += 1
        return self.engine.dispatch(agent, query_id=query_id, **kwargs)

    def _on_answer(self, packet: Packet) -> None:
        payload = packet.payload
        digest = isinstance(payload, TopKDigest)
        self.peers.note_alive(payload.responder, self.sim.now)
        if not digest:
            self.replication.note_peer_alive(
                payload.responder, payload.responder_address
            )
        handle = self._queries.get(payload.query_id)
        if handle is None or handle.finished:
            self.tracer.record(self.sim.now, "node", "late-answer", node=self.name)
            return
        if digest:
            # A hop whose every match was dominated in-network: record
            # the dominated count, but no answer items.
            handle.record_digest(payload, self.sim.now)
        else:
            handle.record_answer(payload, self.sim.now)

    def _replay_cached(self, handle: QueryHandle, cached: tuple) -> None:
        """Serve a query from the result cache: replay the answer set.

        Each cached answer is re-keyed to the new query id and recorded
        as if it had just arrived; the handle is marked so reports can
        tell a zero-traffic cache hit from a network round.
        """
        handle.served_from_cache = True
        now = self.sim.now
        for answer in cached:
            handle.record_answer(replace(answer, query_id=handle.query_id), now)
        self.tracer.record(
            now,
            "replication",
            "cache-hit",
            node=self.name,
            query=str(handle.query_id),
            keyword=handle.keyword,
        )

    def _arm_auto_finish(self, handle: QueryHandle, quiet_period: float) -> None:
        def check() -> None:
            if handle.finished:
                return
            last_activity = handle.last_arrival or handle.issued_at
            deadline = last_activity + quiet_period
            if self.sim.now >= deadline:
                self.finish_query(handle)
            else:
                self.sim.schedule(deadline - self.sim.now, check)

        self.sim.schedule(quiet_period, check)

    # -- reconfiguration ----------------------------------------------------------------

    def finish_query(self, handle: QueryHandle) -> None:
        """Close a query and run the reconfiguration strategy."""
        if handle.query_id not in self._queries:
            raise QueryError(f"{handle.query_id} does not belong to this node")
        handle.mark_finished(self.sim.now)
        if handle.top_k is None and not handle.served_from_cache:
            # Exhaustive network rounds feed the hot-query result cache
            # (replayed hits must not re-cache themselves, and top-k
            # answer sets depend on the travelling threshold, so only
            # full answer sets are cacheable).
            self.replication.cache_answers(handle.keyword, tuple(handle.answers))
        self._reconfigure(handle)

    def _reconfigure(self, handle: QueryHandle) -> None:
        observations = self._observations_from(handle)
        self.strategy.observe(handle.keyword, observations)
        selected = self.strategy.select_for(
            observations, self.config.max_direct_peers, keyword=handle.keyword
        )
        before = set(self.peers.bpids())
        now = self.sim.now
        new_entries = []
        for obs in selected:
            existing = self.peers.get(obs.bpid)
            entry = PeerInfo(
                bpid=obs.bpid,
                address=obs.address,
                added_at=existing.added_at if existing else now,
                last_answers=obs.answers,
                last_hops=obs.hops,
                total_answers=(existing.total_answers if existing else 0) + obs.answers,
                timeouts=existing.timeouts if existing else 0,
                suspect=existing.suspect if existing else False,
                last_seen=existing.last_seen if existing else 0.0,
            )
            new_entries.append(entry)
        self.peers.replace_all(new_entries)
        after = set(self.peers.bpids())
        if before != after:
            self.tracer.record(
                now,
                "node",
                "reconfigure",
                node=self.name,
                added=sorted(str(b) for b in after - before),
                dropped=sorted(str(b) for b in before - after),
            )

    def _observations_from(self, handle: QueryHandle) -> list[PeerObservation]:
        """Merge current peers and responders into strategy input.

        Suspected-dead peers are left out, so the strategy can never
        re-select them: their slots backfill with responders instead
        (evict-and-backfill).  A suspect that answered this very query
        was cleared by ``note_alive`` before this runs, so it competes
        normally.
        """
        merged: dict[BPID, PeerObservation] = {}
        for peer in self.peers.entries():
            if peer.suspect:
                continue
            merged[peer.bpid] = PeerObservation(
                bpid=peer.bpid, address=peer.address, is_current=True
            )
        totals: dict[BPID, tuple[int, int, IPAddress]] = {}
        for answer in handle.answers:
            if answer.responder == self.bpid:
                continue
            count, _hops, _address = totals.get(answer.responder, (0, 0, None))
            totals[answer.responder] = (
                count + answer.answer_count,
                answer.hops,
                answer.responder_address,
            )
        for bpid, (count, hops, address) in totals.items():
            current = bpid in merged
            merged[bpid] = PeerObservation(
                bpid=bpid,
                address=address,
                answers=count,
                hops=hops,
                is_current=current,
            )
        return list(merged.values())

    # -- offline discovery -------------------------------------------------------------

    def discover(self, ttl: int | None = None) -> None:
        """Flood a :class:`DiscoveryAgent` to map the network's content.

        Reports stream back into :attr:`knowledge` (and feed the
        shipping-policy store-size estimates) as they arrive; run the
        simulator to let the sweep finish.  This is the paper's offline
        statistics collection.
        """
        if self.engine is None:
            raise BestPeerError(f"node {self.name} must join before discovery")
        self.engine.dispatch(
            DiscoveryAgent(), ttl=ttl if ttl is not None else self.config.ttl
        )

    def _on_discovery_report(self, packet: Packet) -> None:
        report: ContentReport = packet.payload
        self.knowledge.record(report, self.sim.now)
        self.record_store_size(report.responder, report.total_bytes)
        self.tracer.record(
            self.sim.now,
            "node",
            "discovery-report",
            node=self.name,
            peer=str(report.responder),
            objects=report.object_count,
        )

    # -- smart queries: code-shipping vs data-shipping ---------------------------------

    def smart_query(
        self,
        keyword: str,
        on_answer: Callable[[QueryHandle, AnswerMessage], None] | None = None,
        on_finish: Callable[[QueryHandle], None] | None = None,
    ) -> QueryHandle:
        """Single-hop query with a per-peer shipping decision.

        The paper's future-work optimizer: for each direct peer, the
        configured :class:`~repro.core.shipping.ShippingPolicy` decides
        whether to ship the *agent* to the data or to ship (or reuse a
        cached copy of) the *data* to the query.  Unlike
        :meth:`issue_query`, this only consults direct peers - it is a
        local-optimization primitive, not a network-wide flood.
        """
        if self.engine is None:
            raise BestPeerError(f"node {self.name} must join before querying")
        query_id = QueryId(self.bpid, self._next_query_serial)
        self._next_query_serial += 1
        handle = QueryHandle(
            query_id=query_id,
            keyword=keyword,
            issued_at=self.sim.now,
            on_answer=on_answer,
            on_finish=on_finish,
        )
        self._queries[query_id] = handle
        if self.config.search_own_store:
            handle.local_result = self.storm.search_scan(keyword)
        code_targets: list[IPAddress] = []
        for peer in self.peers.entries():
            if peer.suspect:
                handle.mark_degraded("suspect-peer-skipped")
                continue
            estimate = self._estimates.setdefault(peer.bpid, PeerEstimate())
            estimate.queries_seen += 1
            estimate.cached = peer.bpid in self._data_cache
            choice = self.shipping.choose(estimate)
            self.tracer.record(
                self.sim.now,
                "node",
                "shipping-choice",
                node=self.name,
                peer=str(peer.bpid),
                choice=choice,
            )
            if choice == CODE:
                code_targets.append(peer.address)
            elif estimate.cached:
                self._answer_from_cache(handle, peer.bpid, peer.address)
            else:
                self._request_data(peer.bpid, handle, peer.address)
        if code_targets:
            agent = StorMSearchAgent(
                keyword,
                mode="metadata" if self.config.result_mode == MODE_METADATA else "direct",
                use_index=self.config.use_index,
            )
            self.engine.dispatch(agent, query_id=query_id, ttl=1, targets=code_targets)
        return handle

    def record_store_size(self, bpid: BPID, store_bytes: int) -> None:
        """Feed a peer's observed store size into the shipping estimates
        (typically learned by a discovery agent)."""
        estimate = self._estimates.setdefault(bpid, PeerEstimate())
        estimate.store_bytes = store_bytes

    def invalidate_data_cache(self, bpid: BPID | None = None) -> None:
        """Drop cached peer datasets (all of them when ``bpid`` is None)."""
        if bpid is None:
            self._data_cache.clear()
        else:
            self._data_cache.pop(bpid, None)

    def has_cached_data(self, bpid: BPID) -> bool:
        """True when this node mirrors ``bpid``'s dataset locally."""
        return bpid in self._data_cache

    def _answer_from_cache(
        self, handle: QueryHandle, bpid: BPID, address: IPAddress
    ) -> None:
        """Evaluate a query against a locally cached peer dataset."""
        objects = self._data_cache[bpid]
        needle = normalize_keyword(handle.keyword)
        items = []
        for position, (keywords, payload) in enumerate(objects):
            if needle in keywords:
                items.append(
                    AnswerItem(
                        rid=RecordId(0, position % 0xFFFF),
                        keywords=tuple(keywords),
                        size=len(payload),
                        payload=payload,
                    )
                )
        # Local evaluation still costs CPU time proportional to the scan.
        service = len(objects) * self.config.agent_costs.object_match_time
        answer = AnswerMessage(
            query_id=handle.query_id,
            responder=bpid,
            responder_address=address,
            hops=0,  # answered from the local cache
            items=tuple(items),
        )
        self.host.cpu.submit(service, self._record_cache_answer, handle, answer)

    def _record_cache_answer(self, handle: QueryHandle, answer: AnswerMessage) -> None:
        if not handle.finished and answer.items:
            handle.record_answer(answer, self.sim.now)

    def _on_data_request(self, packet: Packet) -> None:
        request: DataRequest = packet.payload
        objects = tuple(
            (obj.keywords, obj.payload) for _rid, obj in self.storm.scan()
        )
        # Reading the whole store out costs a full scan's worth of CPU.
        service = self.storm.count * self.config.agent_costs.object_match_time
        reply = DataReply(request.token, objects)
        self.host.cpu.submit(service, self._send_data_reply, packet.src, reply)

    def _send_data_reply(self, dst: IPAddress, reply: DataReply) -> None:
        if self.host.online:
            self.host.send(dst, PROTO_DATA_REPLY, reply)

    def _request_data(
        self, bpid: BPID, handle: QueryHandle, address: IPAddress
    ) -> None:
        def degrade() -> None:
            # Graceful degradation: the query completes with whatever
            # other peers returned, flagged partial with the cause.
            handle.mark_degraded("data-timeout")
            self.tracer.record(
                self.sim.now, "node", "data-timeout", node=self.name, peer=str(bpid)
            )

        self.requests.send(
            "data",
            lambda token: self.host.send(
                address, PROTO_DATA_REQUEST, DataRequest(token)
            ),
            self.config.fetch_timeout,
            context=(bpid, handle),
            on_timeout=lambda: self._charge_timeout("data", bpid),
            abandoned=lambda: handle.finished,
            on_give_up=degrade,
        )

    def _on_data_reply(self, packet: Packet) -> None:
        reply: DataReply = packet.payload
        entry = self.requests.settle(reply.token, "data")
        if entry is None:
            return
        entry.timer.cancel()
        bpid, handle = entry.context
        self.peers.note_alive(bpid, self.sim.now)
        self._data_cache[bpid] = list(reply.objects)
        estimate = self._estimates.setdefault(bpid, PeerEstimate())
        estimate.store_bytes = reply.total_bytes
        estimate.cached = True
        peer = self.peers.get(bpid)
        address = peer.address if peer is not None else packet.src
        if not handle.finished:
            self._answer_from_cache(handle, bpid, address)

    # -- out-of-network downloads (result mode 2) -------------------------------------

    def fetch(
        self,
        holder: IPAddress,
        rid: RecordId,
        callback: Callable[[FetchReply | None], None],
    ) -> None:
        """Fetch one object directly from its holder (None on timeout).

        With a retry policy configured, a timed-out fetch re-sends per
        the backoff schedule before the callback sees None.
        """
        self._request(
            "fetch",
            holder,
            callback,
            lambda token: self.host.send(holder, PROTO_FETCH, FetchRequest(token, rid)),
        )

    def _request(
        self,
        kind: str,
        dst: IPAddress,
        callback: Callable[[Any], None],
        transmit: Callable[[int], None],
    ) -> None:
        """A fetch or an active request: the two differ only in the frame."""
        fail = partial(callback, None)
        self.requests.send(
            kind,
            transmit,
            self.config.fetch_timeout,
            context=callback,
            on_timeout=lambda: self._charge_timeout(kind, self._bpid_for_address(dst)),
            on_offline=fail,
            on_give_up=fail,
        )

    def _on_reply(self, packet: Packet) -> None:
        reply: FetchReply | ActiveReply = packet.payload
        entry = self.requests.settle(reply.token, _REPLY_KINDS[packet.protocol])
        if entry is None:
            return
        bpid = self._bpid_for_address(packet.src)
        if bpid is not None:
            self.peers.note_alive(bpid, self.sim.now)
        entry.context(reply)

    def _on_fetch(self, packet: Packet) -> None:
        request: FetchRequest = packet.payload
        try:
            obj = self.storm.get(request.rid)
            reply = FetchReply(request.token, request.rid, obj.payload, found=True)
        except Exception:  # removed/updated during the delay - Section 2
            # Replica-flagged rids (high page-id bit) answer from the
            # replica store, so downloads work against holders too.
            payload = self.replication.replica_payload(request.rid)
            if payload is not None:
                reply = FetchReply(request.token, request.rid, payload, found=True)
            else:
                reply = FetchReply(request.token, request.rid, None, found=False)
        self.host.send(packet.src, PROTO_FETCH_REPLY, reply)

    # -- active objects ---------------------------------------------------------------------

    def request_active(
        self,
        owner: IPAddress,
        name: str,
        credential: str,
        callback: Callable[[ActiveReply | None], None],
    ) -> None:
        """Ask a peer's active object for content under ``credential``."""
        self._request(
            "active",
            owner,
            callback,
            lambda token: self.host.send(
                owner, PROTO_ACTIVE, ActiveRequest(token, name, self.bpid, credential)
            ),
        )

    def _on_active(self, packet: Packet) -> None:
        request: ActiveRequest = packet.payload
        obj = self.catalog.get(request.name)
        if obj is None:
            reply = ActiveReply(
                request.token, request.name, None, granted=False, reason="no such object"
            )
        else:
            try:
                content = obj.render(request.requester, request.credential)
                reply = ActiveReply(request.token, request.name, content, granted=True)
            except AccessDeniedError as exc:
                reply = ActiveReply(
                    request.token, request.name, None, granted=False, reason=str(exc)
                )
        self.host.send(packet.src, PROTO_ACTIVE_REPLY, reply)

    # -- introspection ------------------------------------------------------------------

    def statistics(self) -> dict[str, int]:
        """Operational counters for monitoring and tests."""
        requests = self._requests
        stats = {
            "queries_issued": len(self._queries),
            "answers_received": sum(
                len(handle.answers) for handle in self._queries.values()
            ),
            "messages_sent": self.host.messages_sent,
            "messages_received": self.host.messages_received,
            "bytes_sent": self.host.bytes_sent,
            "shared_objects": self.storm.count,
            "direct_peers": len(self.peers),
            "cached_peer_datasets": len(self._data_cache),
            "known_hosts": len(self._knowledge or ()),
            # outstanding request tokens (leak auditing) and robustness
            "pending_fetches": len(requests.pending("fetch")) if requests else 0,
            "pending_actives": len(requests.pending("active")) if requests else 0,
            "pending_data": len(requests.pending("data")) if requests else 0,
            "pending_liglo": sum(self.liglo.pending_counts().values()),
            "suspect_peers": len(self.peers.suspect_bpids()),
            "queries_degraded": sum(
                1 for handle in self._queries.values() if handle.degraded
            ),
            "dominated_dropped": sum(
                handle.dominated_dropped for handle in self._queries.values()
            ),
            "request_timeouts": sum(self.request_timeouts.values()),
            "request_retries": self.request_retries,
            "liglo_retries": self.liglo.retries,
            "hint_queries": self.hint_queries,
            "hint_hits": self.hint_hits,
            "hint_fallbacks": self.hint_fallbacks,
            "hint_keywords_published": len(self._published_hints),
        }
        stats.update(self.replication.statistics())
        if self.engine is not None:
            stats["agents_executed"] = self.engine.agents_executed
            stats["agents_deduped"] = self.engine.agents_deduped
        return stats

    def __repr__(self) -> str:
        identity = str(self.engine.local_bpid) if self.engine else "unjoined"
        return f"BestPeerNode({self.name}, {identity}, peers={len(self.peers)})"
