"""Tests for the network builder."""

import pytest

from repro.agents.costs import AgentCosts
from repro.core import BestPeerConfig, build_network
from repro.core.builder import BestPeerNetwork
from repro.errors import BestPeerError
from repro.topology import line, random_graph, ring
from repro.util.tracing import Tracer

FAST = AgentCosts(
    class_install_time=0.002,
    state_install_time=0.001,
    execute_overhead=0.0,
    page_io_time=0.0,
    object_match_time=0.0,
)


def config(**overrides):
    defaults = dict(agent_costs=FAST)
    defaults.update(overrides)
    return BestPeerConfig(**defaults)


class TestBuildValidation:
    def test_zero_nodes_rejected(self):
        with pytest.raises(BestPeerError):
            build_network(0)

    def test_zero_liglos_rejected(self):
        with pytest.raises(BestPeerError):
            build_network(2, liglo_count=0)

    def test_topology_size_mismatch(self):
        with pytest.raises(BestPeerError):
            build_network(3, topology=line(4))

    def test_node_count_beyond_the_address_space_names_the_limit(self):
        # 65 536 simulated addresses, two per host (nodes and LIGLOs).
        with pytest.raises(BestPeerError, match="<= 32767 nodes"):
            build_network(32768)
        with pytest.raises(BestPeerError, match="<= 32765 nodes"):
            build_network(32766, liglo_count=3)

    def test_liglo_round_robin(self):
        net = build_network(6, config=config(), liglo_count=2)
        by_server = {}
        for node in net.nodes:
            by_server.setdefault(node.bpid.liglo_id, []).append(node)
        assert sorted(len(v) for v in by_server.values()) == [3, 3]

    def test_tracer_threaded_through(self):
        tracer = Tracer()
        net = build_network(2, config=config(), topology=line(2), tracer=tracer)
        assert tracer.count("liglo", "register") == 2


class TestSetUpCost:
    """Set-up is guarded on counts, never on wall-clock."""

    @pytest.mark.parametrize("nodes", [200, 800])
    def test_idle_stores_allocate_no_buffer_frames(self, nodes):
        topology = random_graph(nodes, 4, seed=nodes)
        widest = max(topology.degree(i) for i in range(nodes))
        net = build_network(
            nodes, config=config(max_direct_peers=widest), topology=topology
        )

        def frames():
            return [node.storm.buffer.frames_allocated for node in net.nodes]

        assert sum(frames()) == 0
        net.nodes[3].share(["needle"], b"first")
        net.nodes[nodes - 1].share(["needle"], b"second")
        sharers = {i: count for i, count in enumerate(frames()) if count}
        assert sharers == {3: 1, nodes - 1: 1}


class TestApplyTopology:
    def test_reapplying_replaces_links(self):
        net = build_network(4, config=config(), topology=line(4))
        assert len(net.nodes[1].peers) == 2
        net.apply_topology(ring(4))
        assert len(net.nodes[0].peers) == 2
        assert net.nodes[3].bpid in net.nodes[0].peers

    def test_size_mismatch_rejected(self):
        net = build_network(4, config=config(), topology=line(4))
        with pytest.raises(BestPeerError):
            net.apply_topology(line(5))

    def test_populate_visits_every_node_in_order(self):
        net = build_network(3, config=config(), topology=line(3))
        filled = []
        net.populate(lambda node, index: filled.append((node, index)))
        assert filled == list(zip(net.nodes, range(3)))

    def test_accessors(self):
        net = build_network(3, config=config(), topology=line(3))
        assert isinstance(net, BestPeerNetwork)
        assert net.base is net.nodes[0]
        assert net.node(2) is net.nodes[2]
        assert len(net) == 3
