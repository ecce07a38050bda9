"""LivePeer: a runnable BestPeer node on real sockets.

The minimal live node: a StorM store, an agent engine, a manually
managed peer list, and keyword queries whose answers arrive on a
background thread and can be awaited.  Reconfiguration works exactly as
in the simulator: after a query, MaxCount keeps the best answerers.

Live mode intentionally omits the pieces that only matter at network
scale (LIGLO churn handling, cost accounting); the simulator covers
those.  What it proves is that the agents, the code shipping, and the
protocols are real, working software.
"""

from __future__ import annotations

import threading
from typing import Any, Sequence

from repro.agents.messages import AnswerMessage, BatchedAnswers
from repro.agents.storm_agent import StorMSearchAgent
from repro.core.routing import MaxCountStrategy, PeerObservation
from repro.errors import BestPeerError
from repro.ids import BPID, QueryId
from repro.live.engine import PROTO_ANSWER, LiveAgentEngine
from repro.live.transport import LiveAddress, LiveEndpoint
from repro.storm.store import StorM


class LiveQuery:
    """An in-flight live query; answers can be awaited."""

    def __init__(self, query_id: QueryId, keyword: str):
        self.query_id = query_id
        self.keyword = keyword
        self.answers: list[AnswerMessage] = []
        self._condition = threading.Condition()

    def _record(self, answer: AnswerMessage) -> None:
        with self._condition:
            self.answers.append(answer)
            self._condition.notify_all()

    def wait_for_answers(self, count: int, timeout: float = 5.0) -> bool:
        """Block until ``count`` answers arrived (False on timeout)."""
        deadline = threading.Event()  # unused; Condition handles timing

        def enough() -> bool:
            return len(self.answers) >= count

        with self._condition:
            return self._condition.wait_for(enough, timeout=timeout)

    @property
    def answer_count(self) -> int:
        with self._condition:
            return sum(answer.answer_count for answer in self.answers)

    @property
    def responders(self) -> set[BPID]:
        with self._condition:
            return {answer.responder for answer in self.answers}


class LivePeer:
    """One BestPeer participant on real sockets."""

    #: node id of the next LivePeer constructed in this process
    _next_identity = 0
    _identity_lock = threading.Lock()

    def __init__(
        self,
        name: str,
        storm: StorM | None = None,
        max_peers: int = 8,
        port: int = 0,
        loss_probability: float = 0.0,
        loss_seed: int = 0,
    ):
        if max_peers < 1:
            raise BestPeerError(f"max_peers must be >= 1, got {max_peers}")
        self.name = name
        self.max_peers = max_peers
        self.storm = storm if storm is not None else StorM()
        self.endpoint = LiveEndpoint(
            port=port, loss_probability=loss_probability, loss_seed=loss_seed
        )
        with LivePeer._identity_lock:
            self.bpid = BPID("live", LivePeer._next_identity)
            LivePeer._next_identity += 1
        self._lock = threading.RLock()
        self._peers: dict[BPID, LiveAddress] = {}
        self._queries: dict[QueryId, LiveQuery] = {}
        self._next_query_serial = 0
        self.strategy = MaxCountStrategy()
        self.engine = LiveAgentEngine(
            self.endpoint,
            self.bpid,
            services={"storm": self.storm, "node": self},
            get_peers=self._peer_addresses,
        )
        self.endpoint.bind(PROTO_ANSWER, self._on_answer)
        self._liglo_client = None
        self._liglo_address: LiveAddress | None = None
        # Discovery agents report here, exactly as in the simulator.
        from repro.core.discovery import PROTO_DISCOVERY_REPORT, KnowledgeBase

        self.knowledge = KnowledgeBase()
        self.endpoint.bind(PROTO_DISCOVERY_REPORT, self._on_discovery_report)

    def _on_discovery_report(self, _src: LiveAddress, report) -> None:
        import time

        with self._lock:
            self.knowledge.record(report, now=time.monotonic())

    def discover(self, ttl: int = 7) -> None:
        """Flood a discovery agent; reports fill :attr:`knowledge`."""
        from repro.core.discovery import DiscoveryAgent

        self.engine.dispatch(DiscoveryAgent(), ttl=ttl)

    # -- LIGLO (live) ---------------------------------------------------------------

    def register_with(
        self,
        liglo: LiveAddress,
        timeout: float = 5.0,
        retry_policy=None,
        rng=None,
        sleep=None,
    ) -> bool:
        """Register at a live LIGLO server; adopts its BPID and peers.

        Call before wiring peers or issuing queries — the identity this
        peer presents on the wire changes to the LIGLO-issued one.
        Returns False on rejection or timeout (the self-assigned
        identity stays in that case).

        With a :class:`~repro.util.retry.RetryPolicy`, a *timed-out*
        registration is retried per the backoff schedule, and an
        unreachable LIGLO surfaces as a typed
        :class:`~repro.errors.LigloUnreachableError` instead of a bare
        False.  Rejections (capacity) still return False immediately —
        the server answered; retrying will not change its mind.
        """
        from repro.live.liglo import LiveLigloClient

        if self._liglo_client is None:
            self._liglo_client = LiveLigloClient(self.endpoint)
        if retry_policy is None:
            bpid, peers, _reason = self._liglo_client.register(liglo, timeout=timeout)
            if bpid is None:
                return False
        else:
            from repro.errors import LigloUnreachableError

            failures = 0
            if sleep is None:
                import time

                sleep = time.sleep
            while True:
                bpid, peers, reason = self._liglo_client.register(
                    liglo, timeout=timeout
                )
                if bpid is not None:
                    break
                if reason != "registration timed out":
                    return False  # an answered rejection, not an outage
                failures += 1
                if not retry_policy.should_retry(failures):
                    raise LigloUnreachableError(
                        f"LIGLO at {tuple(liglo)} unreachable after "
                        f"{failures} attempt(s)",
                        attempts=failures,
                    )
                sleep(retry_policy.delay(failures, rng))
        with self._lock:
            self.bpid = bpid
            self.engine.local_bpid = bpid
            self._liglo_address = tuple(liglo)
            for peer_bpid, peer_address in peers:
                if len(self._peers) < self.max_peers:
                    self._peers[peer_bpid] = tuple(peer_address)
        return True

    def resolve_peer(self, bpid: BPID, timeout: float = 5.0) -> LiveAddress | None:
        """Look up a member's current address at our LIGLO."""
        if self._liglo_client is None or self._liglo_address is None:
            raise BestPeerError(f"{self.name} is not registered with a LIGLO")
        return self._liglo_client.resolve(self._liglo_address, bpid, timeout=timeout)

    # -- peers --------------------------------------------------------------------

    @property
    def address(self) -> LiveAddress:
        return self.endpoint.address

    def add_peer(self, bpid: BPID, address: LiveAddress) -> None:
        with self._lock:
            if len(self._peers) >= self.max_peers and bpid not in self._peers:
                raise BestPeerError(f"{self.name} already has {self.max_peers} peers")
            self._peers[bpid] = tuple(address)

    def connect_to(self, other: "LivePeer") -> None:
        """Symmetric convenience link."""
        self.add_peer(other.bpid, other.address)
        other.add_peer(self.bpid, self.address)

    def peer_bpids(self) -> list[BPID]:
        with self._lock:
            return list(self._peers)

    def _peer_addresses(self) -> list[LiveAddress]:
        with self._lock:
            return list(self._peers.values())

    # -- sharing & querying ----------------------------------------------------------

    def share(self, keywords: Sequence[str], payload: bytes):
        return self.storm.put(keywords, payload)

    def share_many(self, objects: Sequence[tuple[Sequence[str], bytes]]):
        """Batch :meth:`share` via StorM's bulk-load fast path."""
        return self.storm.put_many(objects)

    def issue_query(self, keyword: str, ttl: int = 7) -> LiveQuery:
        """Flood a StorM search agent; answers stream into the result."""
        with self._lock:
            query_id = QueryId(self.bpid, self._next_query_serial)
            self._next_query_serial += 1
            query = LiveQuery(query_id, keyword)
            self._queries[query_id] = query
        self.engine.dispatch(StorMSearchAgent(keyword), query_id=query_id, ttl=ttl)
        return query

    def _on_answer(self, _src: LiveAddress, payload: Any) -> None:
        from repro.agents.topk import TopKDigest

        if isinstance(payload, TopKDigest):
            # Top-k digests carry no answer items; the live runtime has
            # no quiet-period accounting to feed, so they are dropped.
            return
        answers = (
            payload.answers if isinstance(payload, BatchedAnswers) else (payload,)
        )
        for answer in answers:
            with self._lock:
                query = self._queries.get(answer.query_id)
            if query is not None:
                query._record(answer)

    # -- reconfiguration ---------------------------------------------------------------

    def reconfigure(self, query: LiveQuery) -> None:
        """Apply MaxCount to the answers collected so far."""
        with self._lock:
            observations = {
                bpid: PeerObservation(
                    bpid=bpid, address=address, is_current=True
                )
                for bpid, address in self._peers.items()
            }
        with query._condition:
            answers = list(query.answers)
        for answer in answers:
            if answer.responder == self.bpid:
                continue
            current = answer.responder in observations
            observations[answer.responder] = PeerObservation(
                bpid=answer.responder,
                address=tuple(answer.responder_address),
                answers=answer.answer_count,
                hops=answer.hops,
                is_current=current,
            )
        selected = self.strategy.select(list(observations.values()), self.max_peers)
        with self._lock:
            self._peers = {obs.bpid: tuple(obs.address) for obs in selected}

    # -- lifecycle -----------------------------------------------------------------------

    def close(self) -> None:
        """Stop the listener and release resources (idempotent)."""
        self.endpoint.close()
        self.storm.close()

    def __enter__(self) -> "LivePeer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
