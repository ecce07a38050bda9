"""The live agent engine: the simulator engine's semantics over TCP.

Same protocol behaviour as :class:`repro.agents.engine.AgentEngine` —
duplicate dropping by agent id, clone-and-forward with TTL/Hops, class
source shipped once per destination with a request/response fallback,
answers sent straight to the initiator — but execution is immediate
(real CPU time *is* the cost) and all state is guarded by a lock because
handlers run on transport worker threads.

Agents are the *same classes* that run in the simulator: a
:class:`LiveContext` provides the context surface agents use
(``storm``, ``charge_search`` as a no-op, ``reply``/``send``).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

from repro.agents.agent import Agent
from repro.agents.codeship import AgentCodeRegistry
from repro.agents.envelope import DEFAULT_TTL, MODE_FLOOD, AgentEnvelope, freeze_state
from repro.agents.messages import AnswerItem, AnswerMessage
from repro.errors import AgentError
from repro.ids import BPID, AgentId, QueryId
from repro.live.transport import LiveAddress, LiveEndpoint

PROTO_AGENT = "live.agent"
PROTO_CLASS_REQUEST = "live.agent.class-request"
PROTO_CLASS_RESPONSE = "live.agent.class-response"
PROTO_ANSWER = "live.answer"


class LiveContext:
    """The context surface agents see when executing live."""

    def __init__(self, engine: "LiveAgentEngine", envelope: AgentEnvelope):
        self._engine = engine
        self._envelope = envelope
        self.charged_time = 0.0  # recorded but meaningless live

    @property
    def services(self) -> dict[str, Any]:
        return self._engine.services

    @property
    def storm(self):
        try:
            return self._engine.services["storm"]
        except KeyError:
            raise AgentError("host exposes no 'storm' service") from None

    @property
    def host_id(self) -> BPID:
        return self._engine.local_bpid

    @property
    def host_address(self) -> LiveAddress:
        return self._engine.endpoint.address

    @property
    def initiator(self) -> BPID:
        return self._envelope.initiator

    @property
    def initiator_address(self) -> LiveAddress:
        return self._envelope.initiator_address

    @property
    def query_id(self) -> QueryId | None:
        return self._envelope.query_id

    @property
    def hops(self) -> int:
        return self._envelope.hops

    def charge(self, seconds: float) -> None:
        """Cost accounting is a no-op live: wall-clock time is real."""
        self.charged_time += max(0.0, seconds)

    def charge_search(self, result) -> None:
        self.charged_time += 0.0

    def send(self, dst: LiveAddress, protocol: str, payload: Any) -> None:
        self._engine.endpoint.try_send(tuple(dst), protocol, payload)

    def reply(self, items: Sequence[AnswerItem]) -> None:
        message = AnswerMessage(
            query_id=self._envelope.query_id,
            responder=self._engine.local_bpid,
            responder_address=self._engine.endpoint.address,
            hops=self._envelope.hops,
            items=tuple(items),
        )
        self.send(self._envelope.initiator_address, PROTO_ANSWER, message)


class LiveAgentEngine:
    """Agent runtime bound to one :class:`LiveEndpoint`."""

    def __init__(
        self,
        endpoint: LiveEndpoint,
        local_bpid: BPID,
        services: dict[str, Any] | None = None,
        get_peers: Callable[[], Sequence[LiveAddress]] | None = None,
    ):
        self.endpoint = endpoint
        self.local_bpid = local_bpid
        self.services = services if services is not None else {}
        self.get_peers = get_peers if get_peers is not None else (lambda: [])
        self.registry = AgentCodeRegistry()
        self._lock = threading.RLock()
        self._next_serial = 0
        self._seen: set[AgentId] = set()
        self._shipped: set[tuple[LiveAddress, str]] = set()
        self._parked: dict[str, list[tuple[AgentEnvelope, dict]]] = {}
        self.agents_executed = 0
        self.agents_deduped = 0
        endpoint.bind(PROTO_AGENT, self._on_agent)
        endpoint.bind(PROTO_CLASS_REQUEST, self._on_class_request)
        endpoint.bind(PROTO_CLASS_RESPONSE, self._on_class_response)

    # -- dispatching ---------------------------------------------------------------

    def dispatch(
        self,
        agent: Agent,
        query_id: QueryId | None = None,
        ttl: int = DEFAULT_TTL,
    ) -> AgentId:
        """Flood ``agent`` to the current peers (live = flood mode only)."""
        if ttl < 1:
            raise AgentError(f"dispatch needs ttl >= 1, got {ttl}")
        with self._lock:
            class_name = self.registry.register_local(type(agent))
            agent_id = AgentId(self.local_bpid, self._next_serial)
            self._next_serial += 1
            self._seen.add(agent_id)
        envelope = AgentEnvelope(
            agent_id=agent_id,
            class_name=class_name,
            source=None,
            state=freeze_state(agent.get_state()),
            ttl=ttl,
            hops=0,
            initiator=self.local_bpid,
            initiator_address=self.endpoint.address,
            query_id=query_id,
            mode=MODE_FLOOD,
        )
        first_hop = envelope.hop(None)
        for peer in list(self.get_peers()):
            self._ship(first_hop, tuple(peer))
        return agent_id

    def _ship(self, envelope: AgentEnvelope, dst: LiveAddress) -> None:
        with self._lock:
            key = (dst, envelope.class_name)
            if key in self._shipped:
                outgoing = envelope.with_source(None)
            else:
                outgoing = envelope.with_source(
                    self.registry.source_of(envelope.class_name)
                )
                self._shipped.add(key)
        self.endpoint.try_send(dst, PROTO_AGENT, outgoing)

    # -- receiving -------------------------------------------------------------------

    def _on_agent(self, src: LiveAddress, envelope: AgentEnvelope) -> None:
        with self._lock:
            if envelope.agent_id in self._seen:
                self.agents_deduped += 1
                return
            # Corrupt state raises before the agent is marked seen; the
            # serve loop counts the drop.
            state = envelope.thaw()
            self._seen.add(envelope.agent_id)
            if envelope.source is not None:
                self.registry.install(envelope.class_name, envelope.source)
                known = True
            else:
                known = self.registry.has(envelope.class_name)
            if not known:
                self._parked.setdefault(envelope.class_name, []).append(
                    (envelope, state)
                )
        if not known:
            self.endpoint.try_send(src, PROTO_CLASS_REQUEST, envelope.class_name)
            return
        self._run(envelope, state, src)

    def _on_class_request(self, src: LiveAddress, class_name: str) -> None:
        with self._lock:
            if not self.registry.has(class_name):
                return
            source = self.registry.source_of(class_name)
        self.endpoint.try_send(src, PROTO_CLASS_RESPONSE, (class_name, source))

    def _on_class_response(self, src: LiveAddress, payload: tuple[str, str]) -> None:
        class_name, source = payload
        with self._lock:
            self.registry.install(class_name, source)
            parked = self._parked.pop(class_name, [])
        for envelope, state in parked:
            self._run(envelope, state, src)

    # -- execution --------------------------------------------------------------------

    def _run(
        self, envelope: AgentEnvelope, state: dict[str, Any], arrived_from: LiveAddress
    ) -> None:
        if not envelope.expired:
            next_hop = envelope.hop(None)
            for peer in list(self.get_peers()):
                peer = tuple(peer)
                if peer != arrived_from and peer != tuple(envelope.initiator_address):
                    self._ship(next_hop, peer)
        with self._lock:
            agent_class = self.registry.get(envelope.class_name)
        agent = agent_class.from_state(state)
        context = LiveContext(self, envelope)
        agent.execute(context)  # outputs were sent by the context already
        with self._lock:
            self.agents_executed += 1
