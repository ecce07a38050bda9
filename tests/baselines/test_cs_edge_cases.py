"""Edge cases for the client/server baselines."""

import pytest

from repro.agents.costs import AgentCosts
from repro.baselines.client_server import (
    VARIANT_MCS,
    VARIANT_SCS,
    build_cs_network,
)
from repro.topology import line, star, tree

FAST = AgentCosts(
    class_install_time=0.002,
    state_install_time=0.001,
    execute_overhead=0.001,
    page_io_time=0.0001,
    object_match_time=0.000001,
)


def put_match(node, index, keyword="k", size=1):
    """One ``keyword`` match on every node but the base (index 0)."""
    if index:
        node.storm.put([keyword], bytes([index]) * size)


class TestConcurrentQueries:
    def test_two_in_flight_queries_stay_separate(self):
        deployment = build_cs_network(tree(7, branching=2), VARIANT_MCS, costs=FAST)
        deployment.populate(lambda node, i: put_match(node, i, f"kw{i % 2}"))
        first = deployment.base.issue_query("kw0")
        second = deployment.base.issue_query("kw1")
        deployment.sim.run()
        assert first.done and second.done
        assert first.network_answer_count == 3  # nodes 2, 4, 6 hold kw0
        assert second.network_answer_count == 3  # nodes 1, 3, 5 hold kw1
        assert first.responders == {"cs-2", "cs-4", "cs-6"}
        assert second.responders == {"cs-1", "cs-3", "cs-5"}

    def test_repeated_queries_have_stable_results(self):
        deployment = build_cs_network(line(5), VARIANT_MCS, costs=FAST)
        deployment.populate(lambda node, i: put_match(node, i, size=8))
        counts = []
        for _ in range(3):
            handle = deployment.base.issue_query("k")
            deployment.sim.run()
            counts.append(handle.network_answer_count)
        assert counts == [4, 4, 4]


class TestScsSequencing:
    def test_done_signals_unblock_next_child(self):
        """An SCS node with three children finishes them strictly in
        sequence; the completion handle closes only after the last."""
        deployment = build_cs_network(star(4), VARIANT_SCS, costs=FAST)
        deployment.populate(put_match)
        handle = deployment.base.issue_query("k")
        deployment.sim.run()
        assert handle.done
        assert handle.done_at >= handle.arrivals[-1][0]

    def test_deep_scs_line_completes(self):
        deployment = build_cs_network(line(6), VARIANT_SCS, costs=FAST)
        deployment.populate(put_match)
        handle = deployment.base.issue_query("k")
        deployment.sim.run()
        assert handle.done
        assert handle.network_answer_count == 5


class TestRelayDeath:
    def test_relay_dies_mid_query_strands_subtree(self):
        deployment = build_cs_network(line(4), VARIANT_MCS, costs=FAST)
        deployment.populate(put_match)
        # The first relay dies immediately: its whole subtree is lost
        # and, CS being connection-oriented, "done" never arrives.
        deployment.node(1).host.disconnect()
        handle = deployment.base.issue_query("k")
        deployment.sim.run()
        assert handle.network_answer_count == 0
        assert not handle.done
