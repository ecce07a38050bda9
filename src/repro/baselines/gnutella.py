"""The Gnutella 0.4 protocol, as the FURI servent speaks it.

The comparison system of Section 4.6.  Key protocol behaviours modelled:

* a servent has a **fixed** set of peers — "a node has a fixed set of
  peers and there is no dynamic adjustment";
* QUERY descriptors flood with TTL/Hops and GUID-based duplicate
  suppression;
* QUERYHIT descriptors are routed **back along the reverse query
  path**, hop by hop, using each servent's GUID routing table — "the
  list of files have to be transmitted through the query traversal
  path!";
* hits carry the matching file *names* only ("it simply sends the list
  of files that matches the query"); actual downloads are direct
  HTTP-style transfers outside the protocol (not exercised by the
  paper's experiment, nor here).

PING/PONG peer discovery is not modelled: the paper's servents run on
a fixed cluster with their peer sets configured up front.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.agents.costs import AgentCosts
from repro.core.query import ArrivalLog
from repro.errors import TopologyError
from repro.net.address import AddressPool, IPAddress
from repro.net.message import Packet
from repro.net.network import Deployment, Network
from repro.sim import Simulator
from repro.storm.store import StorM
from repro.topology.builders import Topology

PROTO_QUERY = "gnutella.query"
PROTO_QUERYHIT = "gnutella.queryhit"

DEFAULT_TTL = 7


@dataclass(frozen=True, slots=True)
class QueryDescriptor:
    """Gnutella QUERY: flooded to all peers."""

    guid: tuple[str, int]
    keyword: str
    ttl: int
    hops: int

    def hop(self) -> "QueryDescriptor":
        return QueryDescriptor(self.guid, self.keyword, self.ttl - 1, self.hops + 1)


@dataclass(frozen=True, slots=True)
class QueryHitDescriptor:
    """Gnutella QUERYHIT: routed back along the reverse query path."""

    guid: tuple[str, int]
    responder: str
    #: (file name, size) pairs - names only, like a real QUERYHIT
    files: tuple[tuple[str, int], ...]

    @property
    def answer_count(self) -> int:
        return len(self.files)


@dataclass
class GnutellaQueryHandle(ArrivalLog):
    """Query bookkeeping at the originating servent (arrivals are hits)."""

    guid: tuple[str, int]


class GnutellaServent:
    """One Gnutella node (a FURI instance, minus the GUI)."""

    def __init__(
        self,
        network: Network,
        name: str,
        storm: StorM | None = None,
        costs: AgentCosts | None = None,
    ):
        self.name = name
        self.costs = costs if costs is not None else AgentCosts()
        # FURI is a Java GUI servent with a couple of worker threads:
        # relayed QUERYHITs queue behind the servent's own search work,
        # which is precisely why reverse-path result routing hurts.
        self.host = network.create_host(name, cpu_threads=2)
        self.sim = network.sim
        #: shared files live in the same storage substrate as BestPeer's
        self.storm = storm if storm is not None else StorM()
        self.peers: list[IPAddress] = []
        self._next_serial = 0
        self._seen: set[tuple[str, int]] = set()
        #: GUID -> upstream address: the reverse-path routing table
        self._routes: dict[tuple[str, int], IPAddress] = {}
        self._handles: dict[tuple[str, int], GnutellaQueryHandle] = {}
        self.queries_handled = 0
        self.hits_relayed = 0
        self.host.bind(PROTO_QUERY, self._on_query)
        self.host.bind(PROTO_QUERYHIT, self._on_queryhit)

    def set_peers(self, peers: list[IPAddress]) -> None:
        """Install the fixed peer set."""
        self.peers = list(peers)

    # -- querying -----------------------------------------------------------------

    def issue_query(self, keyword: str, ttl: int = DEFAULT_TTL) -> GnutellaQueryHandle:
        """Flood a QUERY to all peers; hits route back here."""
        guid = (self.name, self._next_serial)
        self._next_serial += 1
        self._seen.add(guid)
        handle = GnutellaQueryHandle(
            guid=guid, keyword=keyword, issued_at=self.sim.now
        )
        self._handles[guid] = handle
        descriptor = QueryDescriptor(guid, keyword, ttl - 1, 1)
        for peer in self.peers:
            self.host.send(peer, PROTO_QUERY, descriptor)
        return handle

    def _on_query(self, packet: Packet) -> None:
        query: QueryDescriptor = packet.payload
        if query.guid in self._seen:
            return
        self._seen.add(query.guid)
        self._routes[query.guid] = packet.src
        if query.ttl > 0:
            forwarded = query.hop()
            for peer in self.peers:
                if peer != packet.src:
                    self.host.send(peer, PROTO_QUERY, forwarded)
        # Search the shared files; same cost model as everywhere else.
        result = self.storm.search_scan(query.keyword)
        self.queries_handled += 1
        service_time = (
            self.costs.execute_overhead
            + result.objects_examined * self.costs.object_match_time
            + result.io.physical_reads * self.costs.page_io_time
        )
        if result.matches:
            files = tuple(
                (f"{self.name}/file-{rid.page_id}-{rid.slot}", obj.size)
                for rid, obj in result.matches
            )
            hit = QueryHitDescriptor(query.guid, self.name, files)
            upstream = packet.src
            self.host.cpu.submit(service_time, self._send_hit, upstream, hit)
        else:
            self.host.cpu.charge(service_time)

    def _send_hit(self, upstream: IPAddress, hit: QueryHitDescriptor) -> None:
        if self.host.online:
            self.host.send(upstream, PROTO_QUERYHIT, hit)

    def _on_queryhit(self, packet: Packet) -> None:
        hit: QueryHitDescriptor = packet.payload
        handle = self._handles.get(hit.guid)
        if handle is not None:
            handle.arrivals.append((self.sim.now, hit.responder, hit.answer_count))
            return
        upstream = self._routes.get(hit.guid)
        if upstream is None:
            return  # route expired: the hit is dropped, per the protocol
        self.hits_relayed += 1
        self.host.send(upstream, PROTO_QUERYHIT, hit)

def scored_reference(stores, keyword: str, k: int | None = None):
    """Exhaustive scored oracle: the true global top-k over ``stores``.

    ``stores`` is an iterable of ``(label, StorM)`` pairs.  Every store
    is walked with :meth:`~repro.storm.store.StorM.scored_search_scan`
    — no index, no wire, no early termination — and the hits are ranked
    globally by ``(-score, label, page, slot)``.  Returns ``(score,
    label, rid)`` triples, truncated to ``k`` when given.

    This is the comparator any in-network top-k scheme is judged
    against: whatever it prunes, the score mass of its answer set must
    match what this flat scan over every store retrieves.
    """
    ranked = [
        (score, label, rid)
        for label, store in stores
        for score, rid, _obj in store.scored_search_scan(keyword).matches
    ]
    ranked.sort(key=lambda hit: (-hit[0], hit[1], hit[2].page_id, hit[2].slot))
    return ranked if k is None else ranked[:k]


class GnutellaDeployment(Deployment):
    """A built Gnutella overlay."""

    def scored_reference(self, keyword: str, k: int | None = None):
        """Global top-k over every servent's store (exhaustive oracle)."""
        return scored_reference(
            [(servent.name, servent.storm) for servent in self.nodes],
            keyword,
            k,
        )


def build_gnutella_network(
    topology: Topology,
    costs: AgentCosts | None = None,
    storm_factory=None,
) -> GnutellaDeployment:
    """Build a Gnutella overlay mirroring ``topology``.

    ``storm_factory(i)`` supplies servent ``i``'s pre-built store
    (experiment provisioning); default is an empty store per servent.
    """
    if topology.node_count < 1:
        raise TopologyError("need at least one servent")
    sim = Simulator()
    network = Network(sim, pool=AddressPool(size=max(256, 2 * topology.node_count)))
    servents = [
        GnutellaServent(
            network,
            f"gnut-{i}",
            costs=costs,
            storm=storm_factory(i) if storm_factory is not None else None,
        )
        for i in range(topology.node_count)
    ]
    for index, servent in enumerate(servents):
        servent.set_peers(
            [servents[neighbor].host.address for neighbor in topology.neighbors(index)]
        )
    return GnutellaDeployment(sim, network, servents)


# -- compact wire registrations (type id block 0x04xx) -------------------------

from repro.net import codec as wire

_SAMPLE_GUID = ("node-3", 17)

wire.register(
    QueryDescriptor,
    0x0401,
    (
        ("guid", wire.GUID_CODEC),
        ("keyword", wire.STR),
        ("ttl", wire.I32),
        ("hops", wire.U32),
    ),
    sample=lambda: QueryDescriptor(_SAMPLE_GUID, "music", 5, 2),
)
wire.register(
    QueryHitDescriptor,
    0x0402,
    (
        ("guid", wire.GUID_CODEC),
        ("responder", wire.STR),
        ("files", wire.seq(wire.pair(wire.STR, wire.I64))),
    ),
    sample=lambda: QueryHitDescriptor(
        _SAMPLE_GUID, "node-9", (("music-0004", 512), ("music-0011", 512))
    ),
)
