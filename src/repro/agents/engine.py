"""The per-host agent execution engine.

One engine runs on every host that participates in agent traffic.  Its
responsibilities, straight from Section 3.1 of the paper:

* **Dedup** — drop any incoming (flood-mode) agent whose id has already
  been seen at this host.
* **Clone and forward** — a live agent (TTL > 0) is re-shipped to every
  direct peer (except the one it arrived from) with TTL decremented and
  Hops incremented, *before* local execution, so flooding never waits on
  local CPU work.
* **Class management** — a class ships as source on the first envelope
  to a destination; a receiver that gets state-only for an unknown class
  parks the envelope and asks the sender for the source (one round
  trip), mirroring on-demand class loading in Java agent systems.
* **Execution** — the agent really runs (actual Python against the
  host's actual StorM store), but all its *outputs* (answer messages,
  next itinerary hop) are released only after the simulated CPU service
  time elapses, so simulated time reflects install + search costs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.agents.agent import Agent
from repro.agents.codeship import AgentCodeRegistry
from repro.agents.costs import AgentCosts
from repro.agents.envelope import (
    DEFAULT_TTL,
    MODE_FLOOD,
    MODE_ITINERARY,
    AgentEnvelope,
    AgentHome,
    ClassRequest,
    ClassResponse,
    freeze_state,
)
from repro.agents.messages import AnswerItem, AnswerMessage
from repro.errors import AgentError, CodeShippingError
from repro.ids import BPID, AgentId, QueryId
from repro.net.address import IPAddress
from repro.net.message import Packet
from repro.net.network import Host, split_callable
from repro.util.tracing import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storm.store import SearchResult, StorM

PROTO_AGENT = "bestpeer.agent"
PROTO_CLASS_REQUEST = "bestpeer.agent.class-request"
PROTO_CLASS_RESPONSE = "bestpeer.agent.class-response"
PROTO_ANSWER = "bestpeer.answer"
PROTO_AGENT_HOME = "bestpeer.agent.home"


def _no_peers() -> list[IPAddress]:
    """The fan-out of an engine given no ``get_peers``."""
    return []


class AgentContext:
    """What an executing agent sees of its host.

    Exposes the host's shared services (``storm`` and anything else the
    embedding node registered), cost charging, and *deferred* messaging:
    sends requested during :meth:`Agent.execute` leave the host only
    after the agent's simulated service time has been paid.
    """

    def __init__(self, engine: "AgentEngine", envelope: AgentEnvelope):
        self._engine = engine
        self._envelope = envelope
        self.charged_time = 0.0
        self._outbox: list[tuple[IPAddress, str, Any]] = []

    # -- host and query context --------------------------------------------------

    @property
    def services(self) -> dict[str, Any]:
        """Host services registered by the embedding node."""
        return self._engine.services

    @property
    def storm(self) -> "StorM":
        """The host's StorM store (raises if the host shares none)."""
        try:
            return self._engine.services["storm"]
        except KeyError:
            raise AgentError("host exposes no 'storm' service") from None

    @property
    def host_id(self) -> BPID:
        """BPID of the host the agent is executing on."""
        return self._engine.local_bpid

    @property
    def initiator(self) -> BPID:
        return self._envelope.initiator

    @property
    def initiator_address(self) -> IPAddress:
        """Where the dispatching node listens for direct replies."""
        return self._envelope.initiator_address

    @property
    def host_address(self) -> IPAddress:
        """This (executing) host's current address."""
        assert self._engine.host.address is not None
        return self._engine.host.address

    @property
    def query_id(self) -> QueryId | None:
        return self._envelope.query_id

    @property
    def hops(self) -> int:
        """Overlay distance from the initiator to this host."""
        return self._envelope.hops

    @property
    def now(self) -> float:
        return self._engine.host.sim.now

    # -- cost charging -----------------------------------------------------------

    def charge(self, seconds: float) -> None:
        """Add explicit simulated CPU time to this execution."""
        if seconds < 0:
            raise AgentError(f"cannot charge negative time {seconds}")
        self.charged_time += seconds

    def charge_search(self, result: "SearchResult") -> None:
        """Charge a StorM search: per-object matching plus buffer misses."""
        costs = self._engine.costs
        self.charge(
            result.objects_examined * costs.object_match_time
            + result.io.physical_reads * costs.page_io_time
        )

    # -- deferred output -----------------------------------------------------------

    def send(self, dst: IPAddress, protocol: str, payload: Any) -> None:
        """Queue a message; it leaves when the service time is paid.

        ``payload`` must be a registered wire message
        (:mod:`repro.net.codec`); anything else raises
        :class:`~repro.errors.WireEncodeError` when it leaves.
        """
        self._outbox.append((dst, protocol, payload))

    def reply(self, items: Sequence[AnswerItem]) -> None:
        """Send an :class:`AnswerMessage` straight back to the initiator."""
        assert self._engine.host.address is not None
        message = AnswerMessage(
            query_id=self._envelope.query_id,
            responder=self._engine.local_bpid,
            responder_address=self._engine.host.address,
            hops=self._envelope.hops,
            items=tuple(items),
        )
        self.send(self._envelope.initiator_address, PROTO_ANSWER, message)


class AgentEngine:
    """Agent runtime bound to one :class:`~repro.net.network.Host`."""

    def __init__(
        self,
        host: Host,
        local_bpid: BPID,
        services: dict[str, Any] | None = None,
        costs: AgentCosts | None = None,
        registry: AgentCodeRegistry | None = None,
        get_peers: Callable[[], Sequence[IPAddress]] | None = None,
        tracer: Tracer | None = None,
    ):
        self.host = host
        self.local_bpid = local_bpid
        self.services = services if services is not None else {}
        self.costs = costs if costs is not None else AgentCosts()
        self._registry = registry
        # Kept split, so a node's engine holds no method object of the node
        self._peers_func, self._peers_owner = split_callable(
            get_peers if get_peers is not None else _no_peers
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: called with (agent_id, state) when an itinerary agent comes home
        self.on_agent_home: Callable[[AgentEnvelope, dict], None] | None = None
        self._next_serial = 0
        self._seen: set[AgentId] = set()
        #: destinations believed to hold each class: (address, class_name)
        self._shipped: set[tuple[IPAddress, str]] = set()
        #: (envelope, thawed state) waiting for a class, keyed by class name
        self._parked: dict[str, list[tuple[AgentEnvelope, dict]]] = {}
        #: counters
        self.agents_executed = 0
        self.agents_deduped = 0
        host.bind(PROTO_AGENT, self._on_agent)
        host.bind(PROTO_CLASS_REQUEST, self._on_class_request)
        host.bind(PROTO_CLASS_RESPONSE, self._on_class_response)
        host.bind(PROTO_AGENT_HOME, self._on_agent_home)

    def get_peers(self) -> Sequence[IPAddress]:
        """This host's current flood fan-out."""
        return self._peers_func(self._peers_owner)

    @property
    def registry(self) -> AgentCodeRegistry:
        """The agent classes present at this host (built on first use)."""
        if self._registry is None:
            self._registry = AgentCodeRegistry()
        return self._registry

    # -- dispatching (the initiating side) ----------------------------------------

    def dispatch(
        self,
        agent: Agent,
        query_id: QueryId | None = None,
        ttl: int = DEFAULT_TTL,
        mode: str = MODE_FLOOD,
        path: Sequence[IPAddress] = (),
        targets: Sequence[IPAddress] | None = None,
    ) -> AgentId:
        """Launch ``agent`` into the network from this host.

        Flood mode clones the agent to every current direct peer (or to
        the explicit ``targets`` subset when given — used by targeted,
        single-hop dispatches); itinerary mode sends it along ``path``
        and it returns home after the last stop.  Returns the agent id
        (all clones share it).
        """
        if ttl < 1:
            raise AgentError(f"dispatch needs ttl >= 1, got {ttl}")
        if mode not in (MODE_FLOOD, MODE_ITINERARY):
            raise AgentError(f"unknown agent mode {mode!r}")
        if mode == MODE_ITINERARY and not path:
            raise AgentError("itinerary mode needs a non-empty path")
        if self.host.address is None:
            raise AgentError("cannot dispatch from an offline host")
        try:
            class_name = self.registry.register_local(type(agent))
        except CodeShippingError as exc:
            # Keep the originating class visible: a parked receiver's
            # later class-request can only name the class, so the error
            # must carry the name rather than lose it here.
            if exc.class_name is None:
                exc.class_name = type(agent).__name__
            self.tracer.record(
                self.host.sim.now,
                "agent",
                "ship-error",
                klass=type(agent).__name__,
                error=str(exc),
            )
            raise
        agent_id = AgentId(self.local_bpid, self._next_serial)
        self._next_serial += 1
        self._seen.add(agent_id)  # a clone routed back here is a duplicate
        envelope = AgentEnvelope(
            agent_id=agent_id,
            class_name=class_name,
            source=None,
            state=freeze_state(agent.get_state()),
            ttl=ttl,
            hops=0,
            initiator=self.local_bpid,
            initiator_address=self.host.address,
            query_id=query_id,
            mode=mode,
            path=tuple(path[1:]) if mode == MODE_ITINERARY else (),
        )
        self.tracer.record(
            self.host.sim.now,
            "agent",
            "dispatch",
            agent=str(agent_id),
            klass=class_name,
            mode=mode,
        )
        first_hop = envelope.hop(None)
        if mode == MODE_FLOOD:
            recipients = targets if targets is not None else self.get_peers()
            self._ship_many(first_hop, recipients)
        else:
            self._ship(first_hop, path[0])
        return agent_id

    def _ship(self, envelope: AgentEnvelope, dst: IPAddress) -> None:
        """Send one envelope, including class source only on first contact."""
        key = (dst, envelope.class_name)
        if key in self._shipped:
            outgoing = envelope.with_source(None)
        else:
            outgoing = envelope.with_source(
                self.registry.source_of(envelope.class_name)
            )
            self._shipped.add(key)
        self.host.send(dst, PROTO_AGENT, outgoing)

    def _ship_many(
        self, envelope: AgentEnvelope, recipients: Sequence[IPAddress]
    ) -> None:
        """Fan one envelope out, building each wire form at most once.

        All already-contacted destinations share the stripped
        (source-less) envelope *object* and all first contacts share the
        source-carrying one, so the network's wire encoder serializes
        each form once per fan-out instead of once per recipient.  The
        per-destination source decision and send order are exactly what
        per-recipient :meth:`_ship` calls would produce.
        """
        stripped = envelope.with_source(None)
        sourced: AgentEnvelope | None = None
        for dst in recipients:
            key = (dst, envelope.class_name)
            if key in self._shipped:
                self.host.send(dst, PROTO_AGENT, stripped)
            else:
                if sourced is None:
                    sourced = envelope.with_source(
                        self.registry.source_of(envelope.class_name)
                    )
                self._shipped.add(key)
                self.host.send(dst, PROTO_AGENT, sourced)

    # -- receiving ------------------------------------------------------------------

    def _on_agent(self, packet: Packet) -> None:
        envelope: AgentEnvelope = packet.payload
        flood = envelope.mode == MODE_FLOOD
        if flood and envelope.agent_id in self._seen:
            self.agents_deduped += 1
            if self.tracer.enabled:  # two of three flood arrivals end here
                self.tracer.record(
                    self.host.sim.now,
                    "agent",
                    "dedup",
                    agent=str(envelope.agent_id),
                )
            return
        # Thawed before the agent is marked seen or any clone leaves: a
        # corrupt blob is a counted decode-error drop (Host._dispatch), and
        # a later good copy of the same agent still runs.
        state = envelope.thaw()
        if flood:
            self._seen.add(envelope.agent_id)
        if envelope.source is not None:
            newly = not self.registry.has(envelope.class_name)
            self.registry.install(envelope.class_name, envelope.source)
            self._run(envelope, state, packet.src, install_charged=newly)
        elif self.registry.has(envelope.class_name):
            self._run(envelope, state, packet.src, install_charged=False)
        else:
            # State-only envelope for an unknown class: ask the sender.
            self._parked.setdefault(envelope.class_name, []).append((envelope, state))
            self.tracer.record(
                self.host.sim.now,
                "agent",
                "class-miss",
                klass=envelope.class_name,
                asking=str(packet.src),
            )
            request = ClassRequest(envelope.class_name)
            self.host.send(packet.src, PROTO_CLASS_REQUEST, request)

    def _on_class_request(self, packet: Packet) -> None:
        class_name = packet.payload.class_name
        if not self.registry.has(class_name):
            # We relayed a state-only envelope for a class we never had
            # (e.g. our own cache was wiped): nothing to serve.  The
            # requester's park entry expires with its query.
            self.tracer.record(
                self.host.sim.now, "agent", "class-unavailable", klass=class_name
            )
            return
        source = self.registry.source_of(class_name)
        response = ClassResponse(class_name, source)
        self.host.send(packet.src, PROTO_CLASS_RESPONSE, response)

    def _on_class_response(self, packet: Packet) -> None:
        response: ClassResponse = packet.payload
        class_name, source = response.class_name, response.source
        newly = not self.registry.has(class_name)
        self.registry.install(class_name, source)
        parked = self._parked.pop(class_name, [])
        for index, (envelope, state) in enumerate(parked):
            # The install cost is paid once, by the first parked envelope.
            self._run(envelope, state, packet.src, install_charged=newly and index == 0)

    # -- execution --------------------------------------------------------------------

    def _run(
        self,
        envelope: AgentEnvelope,
        state: dict[str, Any],
        arrived_from: IPAddress,
        install_charged: bool,
    ) -> None:
        agent_class = self.registry.get(envelope.class_name)
        forwards = envelope.mode == MODE_FLOOD and not envelope.expired
        # Agent classes that merge in-transit state (top-k accumulators)
        # forward *after* execution, from the refreshed state; everyone
        # else keeps the paper's order — clones leave before local
        # execution, so flooding never waits for the CPU-heavy search.
        merge_forward = forwards and getattr(
            agent_class, "forward_merges_state", False
        )
        if forwards and not merge_forward:
            next_hop = envelope.hop(None)
            self._ship_many(
                next_hop,
                [
                    peer
                    for peer in self.get_peers()
                    if peer != arrived_from
                    and peer != envelope.initiator_address
                ],
            )
        context = AgentContext(self, envelope)
        agent = agent_class.from_state(state)
        agent.execute(context)
        if merge_forward:
            # Execution is real Python (no simulated time passes), so
            # the merged-state clones still leave at the arrival instant
            # — the flood's timing is unchanged, only its state is.
            next_hop = envelope.with_state(agent.get_state()).hop(None)
            self._ship_many(
                next_hop,
                [
                    peer
                    for peer in self.get_peers()
                    if peer != arrived_from
                    and peer != envelope.initiator_address
                ],
            )
        self.agents_executed += 1
        service_time = (
            self.costs.execute_overhead
            + self.costs.state_install_time
            + (self.costs.class_install_time if install_charged else 0.0)
            + context.charged_time
        )
        if self.tracer.enabled:
            self.tracer.record(
                self.host.sim.now,
                "agent",
                "execute",
                agent=str(envelope.agent_id),
                hops=envelope.hops,
                service=service_time,
            )
        if envelope.mode == MODE_FLOOD and not context._outbox:
            # Nothing to release when the job ends: it only holds the CPU.
            self.host.cpu.charge(service_time)
        else:
            self.host.cpu.submit(
                service_time, self._release_outputs, envelope, agent, context
            )

    def _release_outputs(
        self, envelope: AgentEnvelope, agent: Agent, context: AgentContext
    ) -> None:
        if not self.host.online:
            return  # the host went down mid-execution; outputs are lost
        for dst, protocol, payload in context._outbox:
            self.host.send(dst, protocol, payload)
        if envelope.mode == MODE_ITINERARY:
            self._continue_itinerary(envelope, agent)

    def _continue_itinerary(self, envelope: AgentEnvelope, agent: Agent) -> None:
        state = agent.get_state()
        if envelope.path and not envelope.expired:
            next_stop = envelope.path[0]
            self._ship(envelope.with_state(state).advance_path().hop(None), next_stop)
        else:
            self.host.send(
                envelope.initiator_address,
                PROTO_AGENT_HOME,
                AgentHome(envelope.agent_id, envelope.class_name, freeze_state(state)),
            )

    def _on_agent_home(self, packet: Packet) -> None:
        home: AgentHome = packet.payload
        self.tracer.record(
            self.host.sim.now,
            "agent",
            "home",
            agent=str(home.agent_id),
            klass=home.class_name,
        )
        if self.on_agent_home is not None:
            self.on_agent_home(home.agent_id, home.thaw())

    # -- local bookkeeping ---------------------------------------------------------------

    def has_seen(self, agent_id: AgentId) -> bool:
        """True when a flood agent with this id already visited this host."""
        return agent_id in self._seen
