"""Cross-subsystem integration scenarios."""

import pytest

from repro.agents.costs import AgentCosts
from repro.baselines.client_server import VARIANT_MCS, build_cs_network
from repro.baselines.gnutella import build_gnutella_network
from repro.core import BestPeerConfig, build_network
from repro.topology import line, random_graph, tree
from repro.workloads import KeywordCorpus, generate_objects

FAST = AgentCosts(
    class_install_time=0.004,
    state_install_time=0.001,
    execute_overhead=0.0005,
    page_io_time=0.0001,
    object_match_time=0.000002,
)


def config(**overrides):
    defaults = dict(agent_costs=FAST)
    defaults.update(overrides)
    return BestPeerConfig(**defaults)


def load(storm, index, count=30, corpus=None):
    corpus = corpus or KeywordCorpus(size=5)
    for spec in generate_objects(index, count=count, size=64, corpus=corpus):
        storm.put(spec.keywords, spec.payload)


class TestDeterminism:
    def build_and_run(self):
        net = build_network(8, config=config(), topology=tree(8, branching=2))
        for i, node in enumerate(net.nodes):
            load(node.storm, i)
        results = []
        for _ in range(3):
            handle = net.base.issue_query("kw0000")
            net.sim.run()
            results.append(
                (
                    round(handle.completion_time, 12),
                    tuple(str(a.responder) for a in handle.answers),
                    handle.network_answer_count,
                )
            )
            net.base.finish_query(handle)
        return results

    def test_identical_builds_produce_identical_runs(self):
        assert self.build_and_run() == self.build_and_run()


class TestChurnDuringQuery:
    def test_query_completes_without_the_departed_node(self):
        net = build_network(5, config=config(), topology=line(5))
        for i, node in enumerate(net.nodes):
            load(node.storm, i)
        # Node 2 leaves just before the query: the chain is severed, so
        # only node 1 can answer.
        net.nodes[2].leave()
        handle = net.base.issue_query("kw0000")
        net.sim.run()
        assert {str(b) for b in handle.responders} == {str(net.nodes[1].bpid)}

    def test_network_heals_after_reconfiguration(self):
        """After a severing departure, answers already collected let the
        base reconnect directly past the hole."""
        net = build_network(
            5, config=config(max_direct_peers=3), topology=line(5)
        )
        for i, node in enumerate(net.nodes):
            load(node.storm, i)
        first = net.base.issue_query("kw0000")
        net.sim.run()
        net.base.finish_query(first)  # far nodes are now direct peers
        net.nodes[1].leave()  # the old bridge disappears
        second = net.base.issue_query("kw0000")
        net.sim.run()
        # Despite losing the bridge, reconfigured peers still answer.
        assert len(second.responders) >= 2


class TestMultiLiglo:
    def test_nodes_split_across_liglo_servers(self):
        net = build_network(
            6, config=config(), topology=line(6), liglo_count=3
        )
        liglo_ids = {node.bpid.liglo_id for node in net.nodes}
        assert len(liglo_ids) == 3
        for i, node in enumerate(net.nodes):
            load(node.storm, i)
        handle = net.base.issue_query("kw0000")
        net.sim.run()
        assert len(handle.responders) == 5

    def test_rejoin_resolves_across_liglo_servers(self):
        """A peer registered at a different LIGLO is still refreshable."""
        net = build_network(4, config=config(), topology=line(4), liglo_count=2)
        neighbor = net.nodes[1]
        assert neighbor.bpid.liglo_id != net.base.bpid.liglo_id
        neighbor.leave()
        neighbor.rejoin()
        net.sim.run()
        net.base.leave()
        net.base.rejoin()
        net.sim.run()
        assert net.base.peers.get(neighbor.bpid).address == neighbor.host.address


class TestReconfigurationConvergence:
    def test_peer_set_stabilizes(self):
        # Only the base is capped at 3 peers; relays get room for the
        # random overlay's degree.
        configs = [config(max_direct_peers=3)] + [
            config(max_direct_peers=9) for _ in range(9)
        ]
        net = build_network(
            10, config=configs, topology=random_graph(10, degree=2, seed=4)
        )
        # Answers concentrated at three nodes.
        for holder in (5, 7, 9):
            for i in range(4):
                net.nodes[holder].share(["target"], bytes([holder, i]) * 16)
        peer_sets = []
        for _ in range(4):
            handle = net.base.issue_query("target")
            net.sim.run()
            net.base.finish_query(handle)
            peer_sets.append(frozenset(str(b) for b in net.base.peers.bpids()))
        # After the first reconfiguration the set never changes again.
        assert peer_sets[1] == peer_sets[2] == peer_sets[3]
        expected = {str(net.nodes[h].bpid) for h in (5, 7, 9)}
        assert peer_sets[-1] == expected


class TestHeterogeneousNodes:
    def test_mixed_strategies_and_capacities(self):
        """"Nodes can redefine the number of direct peers ... and
        implement their own reconfiguration strategies."""
        configs = [
            config(max_direct_peers=2, strategy="maxcount"),
            config(max_direct_peers=8, strategy="static"),
            config(max_direct_peers=4, strategy="minhops"),
            config(max_direct_peers=3, strategy="random"),
        ]
        net = build_network(4, config=configs, topology=line(4))
        for i, node in enumerate(net.nodes):
            load(node.storm, i)
        handle = net.base.issue_query("kw0001")
        net.sim.run()
        net.base.finish_query(handle)
        assert len(net.base.peers) <= 2  # the base's own cap held


class TestCrossSystemConsistency:
    def test_all_three_systems_find_the_same_answers(self):
        """BestPeer, CS, and Gnutella must agree on *what* they find -
        they only differ in *how fast*."""
        topology = tree(7, branching=2)
        corpus = KeywordCorpus(size=5)

        net = build_network(7, config=config(), topology=topology)
        for i, node in enumerate(net.nodes):
            load(node.storm, i, corpus=corpus)
        bp_handle = net.base.issue_query("kw0002")
        net.sim.run()

        cs = build_cs_network(topology, VARIANT_MCS, costs=FAST)
        for i, node in enumerate(cs.nodes):
            load(node.storm, i, corpus=corpus)
        cs_handle = cs.base.issue_query("kw0002", search_own_store=False)
        cs.sim.run()

        gnutella = build_gnutella_network(topology, costs=FAST)
        for i, servent in enumerate(gnutella.nodes):
            load(servent.storm, i, corpus=corpus)
        g_handle = gnutella.base.issue_query("kw0002")
        gnutella.sim.run()

        assert (
            bp_handle.network_answer_count
            == cs_handle.network_answer_count
            == g_handle.network_answer_count
        )
        assert len(bp_handle.responders) == len(cs_handle.responders) == len(
            g_handle.responders
        )
