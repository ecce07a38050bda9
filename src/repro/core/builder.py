"""Construction of whole BestPeer networks.

``build_network`` assembles the full stack — simulator, network fabric,
LIGLO server(s), N BestPeer nodes — runs the registration phase, and
(optionally) wires an explicit overlay topology into the nodes' peer
tables, exactly the controlled setting the paper's evaluation
methodology calls for.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

from repro.core.config import BestPeerConfig
from repro.core.node import BestPeerNode
from repro.errors import BestPeerError
from repro.liglo.server import LigloServer
from repro.net.address import AddressPool
from repro.net.link import LinkModel
from repro.net.network import Network
from repro.sim import Simulator
from repro.storm.store import StorM
from repro.topology.builders import Topology
from repro.util.tracing import NULL_TRACER, Tracer

class BestPeerNetwork:
    """A built BestPeer deployment: simulator, fabric, LIGLOs, nodes."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        liglo_servers: list[LigloServer],
        nodes: list[BestPeerNode],
        tracer: Tracer,
    ):
        self.sim = sim
        self.network = network
        self.liglo_servers = liglo_servers
        self.nodes = nodes
        self.tracer = tracer

    @property
    def base(self) -> BestPeerNode:
        """The designated query initiator (node 0 by convention)."""
        return self.nodes[0]

    def node(self, index: int) -> BestPeerNode:
        return self.nodes[index]

    def __len__(self) -> int:
        return len(self.nodes)

    def apply_topology(self, topology: Topology) -> None:
        """Replace every node's peer table with the topology's edges.

        The topology's base maps to ``self.nodes[0]``; other indices map
        one-to-one.  Peer links are installed in both directions (the
        paper's logical connections are symmetric in the experiments).
        """
        if topology.node_count != len(self.nodes):
            raise BestPeerError(
                f"topology has {topology.node_count} nodes, network has "
                f"{len(self.nodes)}"
            )
        for node in self.nodes:
            node.peers.replace_all([])
        for a, b in sorted(topology.edges):
            self.nodes[a].connect_to(self.nodes[b])
            self.nodes[b].connect_to(self.nodes[a])

    def populate(self, fill: Callable[[BestPeerNode, int], None]) -> None:
        """Run ``fill(node, index)`` for every node (workload loading)."""
        for index, node in enumerate(self.nodes):
            fill(node, index)


def build_network(
    node_count: int,
    config: BestPeerConfig | Sequence[BestPeerConfig] | None = None,
    topology: Topology | None = None,
    liglo_count: int = 1,
    liglo_check_interval: float | None = None,
    default_link: LinkModel | None = None,
    tracer: Tracer | None = None,
    sim: Simulator | None = None,
    storm_factory: Callable[[int], "StorM"] | None = None,
    strategy: str | None = None,
) -> BestPeerNetwork:
    """Build a ready-to-run BestPeer network.

    Every node registers with a LIGLO server (round-robin across
    ``liglo_count`` servers); the registration exchange runs inside the
    simulator before this function returns, so nodes come back with
    BPIDs assigned.  When ``topology`` is given, the LIGLO-suggested
    initial peers are discarded and the explicit overlay is installed.

    ``config`` may be one shared :class:`BestPeerConfig` or a sequence
    with one entry per node ("nodes can redefine the number of direct
    peers ... and implement their own reconfiguration strategies").

    ``storm_factory`` supplies node ``i``'s pre-built store (experiment
    provisioning: bulk-loaded or template-cloned stores); without it
    every node opens an empty default store.

    ``strategy`` overrides the routing-strategy name on every node's
    config (strategy-comparison experiments that hold everything else
    constant); per-node configs still win by passing a ``config``
    sequence instead.
    """
    if node_count < 1:
        raise BestPeerError(f"need >= 1 node, got {node_count}")
    if liglo_count < 1:
        raise BestPeerError(f"need >= 1 LIGLO server, got {liglo_count}")
    # Two addresses per host, so a churning host always finds a fresh one.
    pool_size = max(256, 2 * (node_count + liglo_count))
    if pool_size > AddressPool.MAX_SIZE:
        raise BestPeerError(
            f"need <= {AddressPool.MAX_SIZE // 2 - liglo_count} nodes with "
            f"{liglo_count} LIGLO server(s) (the simulated address space holds "
            f"{AddressPool.MAX_SIZE} addresses, two per host), got {node_count}"
        )
    if topology is not None and topology.node_count != node_count:
        raise BestPeerError(
            f"topology size {topology.node_count} != node count {node_count}"
        )
    if isinstance(config, BestPeerConfig) or config is None:
        shared = config if config is not None else BestPeerConfig()
        configs = [shared] * node_count
    else:
        configs = list(config)
        if len(configs) != node_count:
            raise BestPeerError(
                f"{len(configs)} configs for {node_count} nodes"
            )
    if strategy is not None:
        configs = [replace(cfg, strategy=strategy) for cfg in configs]
    tracer = tracer if tracer is not None else NULL_TRACER
    pool = AddressPool(size=pool_size)
    sim = sim if sim is not None else Simulator()
    network = Network(sim, pool=pool, default_link=default_link, tracer=tracer)
    servers = []
    for i in range(liglo_count):
        host = network.create_host(f"liglo-{i}")
        servers.append(
            LigloServer(
                host,
                initial_peers=0 if topology is not None else 5,
                check_interval=liglo_check_interval,
                tracer=tracer,
            )
        )
    nodes = []
    for i in range(node_count):
        node = BestPeerNode(
            network,
            f"node-{i}",
            config=configs[i],
            tracer=tracer,
            storm=storm_factory(i) if storm_factory is not None else None,
        )
        server = servers[i % liglo_count]
        node.join([server.host.address])
        nodes.append(node)
    sim.run()  # completes every registration exchange
    unjoined = [node.name for node in nodes if not node.joined]
    if unjoined:
        raise BestPeerError(f"nodes failed to join: {unjoined}")
    deployment = BestPeerNetwork(sim, network, servers, nodes, tracer)
    if topology is not None:
        deployment.apply_topology(topology)
    return deployment
