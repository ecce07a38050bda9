"""Shared scaffolding for agent tests: a tiny hand-wired agent network."""

from __future__ import annotations

from repro.agents.engine import PROTO_ANSWER, AgentEngine
from repro.agents.costs import AgentCosts
from repro.ids import BPID, QueryId
from repro.net import Network
from repro.sim import Simulator
from repro.storm import StorM
from repro.util.tracing import Tracer

#: Costs that keep test timings easy to reason about.
FAST_COSTS = AgentCosts(
    class_install_time=0.01,
    state_install_time=0.001,
    execute_overhead=0.0,
    page_io_time=0.0,
    object_match_time=0.0,
)


class AgentHost:
    """A host + engine + StorM store + answer inbox, wired by hand."""

    def __init__(self, rig: "AgentRig", name: str):
        self.rig = rig
        self.host = rig.network.create_host(name)
        self.bpid = BPID("liglo-test", len(rig.nodes))
        self.storm = StorM()
        self.peers: list["AgentHost"] = []
        self.answers = []
        self.queries_issued = 0
        self.engine = AgentEngine(
            self.host,
            self.bpid,
            services={"storm": self.storm},
            costs=rig.costs,
            get_peers=lambda: [p.host.address for p in self.peers if p.host.online],
            tracer=rig.tracer,
        )
        self.host.bind(PROTO_ANSWER, lambda packet: self.answers.append(packet.payload))

    def dispatch(self, agent, query_id: QueryId | None = None, **kwargs):
        """``engine.dispatch`` under a fresh query id unless one is given:
        an answer must name its query to travel as a frame."""
        if query_id is None:
            query_id = QueryId(self.bpid, self.queries_issued)
            self.queries_issued += 1
        return self.engine.dispatch(agent, query_id=query_id, **kwargs)

    def put_objects(self, keyword: str, count: int, size: int = 32) -> None:
        for i in range(count):
            self.storm.put([keyword], bytes([i % 256]) * size)


class AgentRig:
    """Simulator + network + a set of AgentHosts with explicit peer links."""

    def __init__(self, costs: AgentCosts = FAST_COSTS):
        self.sim = Simulator()
        self.tracer = Tracer()
        self.network = Network(self.sim, tracer=self.tracer)
        self.costs = costs
        self.nodes: dict[str, AgentHost] = {}

    def add(self, name: str) -> AgentHost:
        node = AgentHost(self, name)
        self.nodes[name] = node
        return node

    def link(self, a: AgentHost, b: AgentHost) -> None:
        """Bidirectional peer link."""
        a.peers.append(b)
        b.peers.append(a)

    def line(self, *names: str) -> list[AgentHost]:
        """Build a chain a - b - c - ..."""
        nodes = [self.add(name) for name in names]
        for left, right in zip(nodes, nodes[1:]):
            self.link(left, right)
        return nodes
