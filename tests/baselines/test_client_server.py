"""Tests for the SCS/MCS client-server baselines."""

import pytest

from repro.agents.costs import AgentCosts
from repro.baselines.client_server import (
    VARIANT_MCS,
    VARIANT_SCS,
    build_cs_network,
)
from repro.errors import BestPeerError, TopologyError
from repro.topology import line, star, tree
from repro.topology.builders import Topology

FAST = AgentCosts(
    class_install_time=0.005,
    state_install_time=0.001,
    execute_overhead=0.001,
    page_io_time=0.0001,
    object_match_time=0.000001,
)


def fill(node, index, keyword="jazz", count=2, size=64):
    """``count`` matches on every node but the base (index 0)."""
    if index == 0:
        return
    for i in range(count):
        node.storm.put([keyword], bytes([index]) * size)


class TestMcs:
    def test_collects_all_answers(self):
        deployment = build_cs_network(tree(7, branching=2), VARIANT_MCS, costs=FAST)
        deployment.populate(fill)
        handle = deployment.base.issue_query("jazz")
        deployment.sim.run()
        assert handle.done
        assert handle.network_answer_count == 12  # 6 nodes x 2 answers
        assert len(handle.responders) == 6

    def test_base_local_search(self):
        deployment = build_cs_network(line(2), VARIANT_MCS, costs=FAST)
        deployment.base.storm.put(["jazz"], b"mine")
        handle = deployment.base.issue_query("jazz")
        deployment.sim.run()
        assert handle.local_result.match_count == 1

    def test_results_relay_through_path(self):
        """A deep node's answers arrive later than a shallow node's."""
        deployment = build_cs_network(line(4), VARIANT_MCS, costs=FAST)
        deployment.populate(fill)
        handle = deployment.base.issue_query("jazz")
        deployment.sim.run()
        by_responder = {resp: t for t, resp, _ in handle.arrivals}
        assert by_responder["cs-1"] < by_responder["cs-3"]

    def test_done_signal_completes_empty_network(self):
        deployment = build_cs_network(line(3), VARIANT_MCS, costs=FAST)
        handle = deployment.base.issue_query("nothing-matches")
        deployment.sim.run()
        assert handle.done
        assert handle.arrivals == []

    def test_single_node(self):
        deployment = build_cs_network(star(1), VARIANT_MCS, costs=FAST)
        handle = deployment.base.issue_query("jazz")
        deployment.sim.run()
        assert handle.done


class TestScs:
    def test_collects_all_answers(self):
        deployment = build_cs_network(star(4), VARIANT_SCS, costs=FAST)
        deployment.populate(fill)
        handle = deployment.base.issue_query("jazz")
        deployment.sim.run()
        assert handle.done
        assert handle.network_answer_count == 6

    def test_children_are_sequential(self):
        """On a star, SCS completes children one after another."""
        deployment = build_cs_network(star(4), VARIANT_SCS, costs=FAST)
        deployment.populate(fill)
        handle = deployment.base.issue_query("jazz")
        deployment.sim.run()
        arrival_times = [t for t, _, _ in handle.arrivals]
        gaps = [b - a for a, b in zip(arrival_times, arrival_times[1:])]
        # Each child's search runs only after the previous child finished,
        # so consecutive arrivals are separated by a full search time.
        assert all(gap > FAST.execute_overhead for gap in gaps)

    def test_scs_slower_than_mcs_on_star(self):
        """The paper's headline SCS result."""
        results = {}
        for variant in (VARIANT_SCS, VARIANT_MCS):
            deployment = build_cs_network(star(8), variant, costs=FAST)
            deployment.populate(lambda node, i: fill(node, i, count=20, size=512))
            handle = deployment.base.issue_query("jazz")
            deployment.sim.run()
            results[variant] = handle.completion_time
        assert results[VARIANT_SCS] > 2 * results[VARIANT_MCS]


class TestValidation:
    def test_disconnected_topology_rejected(self):
        disconnected = Topology("islands", 4, frozenset({(0, 1), (2, 3)}))
        with pytest.raises(TopologyError):
            build_cs_network(disconnected, VARIANT_MCS)

    def test_unknown_variant_rejected(self):
        with pytest.raises(BestPeerError):
            build_cs_network(line(2), "quantum")
