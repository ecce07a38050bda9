"""Client/server baselines: SCS (single-thread) and MCS (multi-thread).

"The basic difference between CS and P2P is that ... like CS model, the
server must return its result to the client - as such the results must
be returned along the query path."

The overlay topology is oriented into a tree rooted at the base node.
A query travels down the tree as a plain keyword (cheap — no code
shipping, no agent reconstruction), every server runs the search
algorithm locally (same StorM cost model as the agents), and results
flow *back up the tree*, relayed hop by hop.  Each node reports ``done``
to its parent once its own search and all of its children's subtrees
have completed, which is how a connection-oriented CS system knows when
a conversation is over.

* **SCS** — every host has a single-threaded CPU, and a node handles its
  children *sequentially*: it queries child ``i+1`` only after child
  ``i``'s subtree reported done ("it has to complete the first operation
  before switching to the second node for another operation").
* **MCS** — multi-threaded CPUs; all children are queried in parallel.

Intermediate servers relay each result message immediately rather than
consolidating (implementation 2 of footnote 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agents.costs import AgentCosts
from repro.core.query import ArrivalLog
from repro.errors import BestPeerError, TopologyError
from repro.net.address import AddressPool, IPAddress
from repro.net.message import Packet
from repro.net.network import Deployment, Network
from repro.sim import Simulator
from repro.storm.store import SearchResult, StorM
from repro.topology.builders import Topology

PROTO_CS_QUERY = "cs.query"
PROTO_CS_RESULTS = "cs.results"
PROTO_CS_DONE = "cs.done"

VARIANT_SCS = "scs"
VARIANT_MCS = "mcs"


@dataclass(frozen=True, slots=True)
class CsQuery:
    """A query travelling down the server tree."""

    query_id: int
    keyword: str


@dataclass(frozen=True, slots=True)
class CsResults:
    """One server's matches, relayed up the tree toward the base."""

    query_id: int
    responder: str
    answer_count: int
    answer_bytes: int
    payloads: tuple[bytes, ...]


@dataclass(frozen=True, slots=True)
class CsDone:
    """Subtree-completion signal from a child to its parent."""

    query_id: int


@dataclass
class CsQueryHandle(ArrivalLog):
    """Query bookkeeping at the base node."""

    query_id: int
    local_result: SearchResult | None = field(init=False, default=None)
    done: bool = field(init=False, default=False)
    done_at: float | None = field(init=False, default=None)


class _PerQueryState:
    """A relay node's bookkeeping for one query in flight."""

    __slots__ = ("parent", "keyword", "children_pending", "own_done", "queue")

    def __init__(
        self, parent: IPAddress | None, keyword: str, children: list[IPAddress]
    ):
        self.parent = parent
        self.keyword = keyword
        self.children_pending = len(children)
        self.own_done = False
        self.queue = list(children)  # SCS consumes this sequentially


class CsNode:
    """One server (and, toward its children, client) in the CS tree."""

    def __init__(
        self,
        network: Network,
        name: str,
        variant: str,
        storm: StorM | None = None,
        costs: AgentCosts | None = None,
    ):
        if variant not in (VARIANT_SCS, VARIANT_MCS):
            raise BestPeerError(f"unknown CS variant {variant!r}")
        self.variant = variant
        self.name = name
        self.costs = costs if costs is not None else AgentCosts()
        threads = 1 if variant == VARIANT_SCS else 8
        self.host = network.create_host(name, cpu_threads=threads)
        self.sim = network.sim
        self.storm = storm if storm is not None else StorM()
        self.children: list[IPAddress] = []
        self._states: dict[int, _PerQueryState] = {}
        self._handles: dict[int, CsQueryHandle] = {}
        self._next_serial = 0
        self.host.bind(PROTO_CS_QUERY, self._on_query)
        self.host.bind(PROTO_CS_RESULTS, self._on_results)
        self.host.bind(PROTO_CS_DONE, self._on_done)

    def set_children(self, children: list[IPAddress]) -> None:
        """Install this node's downstream servers (tree orientation)."""
        self.children = list(children)

    # -- base-node API -------------------------------------------------------

    def issue_query(self, keyword: str, search_own_store: bool = True) -> CsQueryHandle:
        """Start a query from this node (it becomes the tree root)."""
        query_id = self._next_serial
        self._next_serial += 1
        handle = CsQueryHandle(
            query_id=query_id, keyword=keyword, issued_at=self.sim.now
        )
        self._handles[query_id] = handle
        if search_own_store:
            handle.local_result = self.storm.search_scan(keyword)
        state = _PerQueryState(parent=None, keyword=keyword, children=self.children)
        state.own_done = True  # the base's own search is accounted locally
        self._states[query_id] = state
        query = CsQuery(query_id, keyword)
        self._dispatch_children(query, state)
        if state.children_pending == 0:
            self._finish(query_id, state)
        return handle

    # -- the server side -----------------------------------------------------

    def _on_query(self, packet: Packet) -> None:
        query: CsQuery = packet.payload
        state = _PerQueryState(
            parent=packet.src, keyword=query.keyword, children=self.children
        )
        self._states[query.query_id] = state
        if self.variant == VARIANT_MCS:
            # Children are queried immediately, in parallel with our own
            # search: full concurrency.
            self._dispatch_children(query, state)
        # Run the real search; charge its simulated cost before replying.
        result = self.storm.search_scan(query.keyword)
        service_time = (
            self.costs.execute_overhead
            + result.objects_examined * self.costs.object_match_time
            + result.io.physical_reads * self.costs.page_io_time
        )
        self.host.cpu.submit(service_time, self._own_search_done, query, state, result)

    def _own_search_done(
        self, query: CsQuery, state: _PerQueryState, result: SearchResult
    ) -> None:
        if not self.host.online:
            return
        if result.matches:
            message = CsResults(
                query_id=query.query_id,
                responder=self.name,
                answer_count=result.match_count,
                answer_bytes=result.answer_bytes,
                payloads=tuple(obj.payload for _, obj in result.matches),
            )
            assert state.parent is not None
            self.host.send(state.parent, PROTO_CS_RESULTS, message)
        state.own_done = True
        if self.variant == VARIANT_SCS:
            # Only now turn to the children, one conversation at a time.
            self._dispatch_children(query, state)
        self._maybe_complete(query.query_id, state)

    def _dispatch_children(self, query: CsQuery, state: _PerQueryState) -> None:
        if self.variant == VARIANT_MCS:
            for child in state.queue:
                self.host.send(child, PROTO_CS_QUERY, query)
            state.queue = []
        else:
            self._dispatch_next_child(query, state)

    def _dispatch_next_child(self, query: CsQuery, state: _PerQueryState) -> None:
        if state.queue:
            child = state.queue.pop(0)
            self.host.send(child, PROTO_CS_QUERY, query)

    # -- relaying -----------------------------------------------------------------

    def _on_results(self, packet: Packet) -> None:
        results: CsResults = packet.payload
        handle = self._handles.get(results.query_id)
        if handle is not None:
            handle.arrivals.append(
                (self.sim.now, results.responder, results.answer_count)
            )
            return
        state = self._states.get(results.query_id)
        if state is None or state.parent is None:
            return  # stale traffic
        # Implementation 2: relay immediately, no consolidation.
        self.host.send(state.parent, PROTO_CS_RESULTS, results)

    def _on_done(self, packet: Packet) -> None:
        done: CsDone = packet.payload
        state = self._states.get(done.query_id)
        if state is None:
            return
        state.children_pending -= 1
        if self.variant == VARIANT_SCS:
            # The finished child releases the single conversation slot.
            self._dispatch_next_child(CsQuery(done.query_id, state.keyword), state)
        self._maybe_complete(done.query_id, state)

    def _maybe_complete(self, query_id: int, state: _PerQueryState) -> None:
        if state.own_done and state.children_pending == 0:
            self._finish(query_id, state)

    def _finish(self, query_id: int, state: _PerQueryState) -> None:
        del self._states[query_id]
        handle = self._handles.get(query_id)
        if handle is not None:
            handle.done = True
            handle.done_at = self.sim.now
        elif state.parent is not None:
            self.host.send(state.parent, PROTO_CS_DONE, CsDone(query_id))


class CsDeployment(Deployment):
    """A built CS network mirroring one overlay topology."""


def build_cs_network(
    topology: Topology,
    variant: str = VARIANT_MCS,
    costs: AgentCosts | None = None,
    storm_factory=None,
) -> CsDeployment:
    """Build a CS deployment whose tree mirrors ``topology`` from its base.

    ``storm_factory(i)`` supplies node ``i``'s pre-built store
    (experiment provisioning); default is an empty store per node.
    """
    if not topology.is_connected():
        raise TopologyError("CS tree needs a connected topology")
    sim = Simulator()
    network = Network(sim, pool=AddressPool(size=max(256, 2 * topology.node_count)))
    nodes = [
        CsNode(
            network,
            f"cs-{i}",
            variant,
            costs=costs,
            storm=storm_factory(i) if storm_factory is not None else None,
        )
        for i in range(topology.node_count)
    ]
    # Orient the topology into a BFS tree rooted at the base.
    hops = topology.hops_from_base()
    for index, node in enumerate(nodes):
        children = [
            nodes[neighbor].host.address
            for neighbor in topology.neighbors(index)
            if hops[neighbor] == hops[index] + 1
        ]
        node.set_children(children)
    return CsDeployment(sim, network, nodes)


# -- wire registrations: control block 0x05xx, data block 0x10xx --------------
#
# CsResults carries search payloads, so it rides the data plane next to
# BestPeer's AnswerMessage.

from repro.net import codec as wire

wire.register(
    CsQuery,
    0x0501,
    (("query_id", wire.I64), ("keyword", wire.STR)),
    sample=lambda: CsQuery(query_id=6, keyword="music"),
)
wire.register(
    CsDone,
    0x0502,
    (("query_id", wire.I64),),
    sample=lambda: CsDone(query_id=6),
)
wire.register(
    CsResults,
    0x100A,
    (
        ("query_id", wire.I64),
        ("responder", wire.STR),
        ("answer_count", wire.I64),
        ("answer_bytes", wire.I64),
        ("payloads", wire.seq(wire.BYTES)),
    ),
    sample=lambda: CsResults(
        query_id=6,
        responder="cs-3",
        answer_count=2,
        answer_bytes=9,
        payloads=(b"notes", b"mp3!"),
    ),
    plane=wire.DATA,
)
