"""Tests for offline discovery and the knowledge-based strategy."""

import pytest

from repro.agents.costs import AgentCosts
from repro.core import BestPeerConfig, KnowledgeStrategy, build_network
from repro.core.discovery import ContentReport, KnowledgeBase
from repro.core.routing import PeerObservation
from repro.errors import BestPeerError
from repro.ids import BPID
from repro.net.address import IPAddress
from repro.topology import line

FAST = AgentCosts(
    class_install_time=0.005,
    state_install_time=0.001,
    execute_overhead=0.0,
    page_io_time=0.0001,
    object_match_time=0.000001,
)


def report(n, keyword_counts, objects=10, total=1000, hops=1):
    return ContentReport(
        responder=BPID("liglo", n),
        responder_address=IPAddress(f"10.0.0.{n}"),
        hops=hops,
        object_count=objects,
        total_bytes=total,
        keyword_counts=tuple(keyword_counts),
    )


class TestContentReport:
    def test_count_for_normalizes(self):
        r = report(1, [("jazz", 5)])
        assert r.count_for(" JAZZ ") == 5
        assert r.count_for("rock") == 0


class TestKnowledgeBase:
    def test_record_and_query(self):
        kb = KnowledgeBase()
        kb.record(report(1, [("jazz", 5), ("rock", 2)]), now=1.0)
        kb.record(report(2, [("jazz", 1)]), now=2.0)
        assert len(kb) == 2
        assert kb.expected_answers(BPID("liglo", 1), ["jazz"]) == 5
        assert kb.expected_answers(BPID("liglo", 1), ["jazz", "rock"]) == 7
        assert kb.expected_answers(BPID("liglo", 9), ["jazz"]) == 0

    def test_rerecord_overwrites(self):
        kb = KnowledgeBase()
        kb.record(report(1, [("jazz", 5)]), now=1.0)
        kb.record(report(1, [("jazz", 9)]), now=2.0)
        assert kb.expected_answers(BPID("liglo", 1), ["jazz"]) == 9
        assert kb.received_at[BPID("liglo", 1)] == 2.0

    def test_best_providers(self):
        kb = KnowledgeBase()
        kb.record(report(1, [("jazz", 5)]), now=0.0)
        kb.record(report(2, [("jazz", 9)]), now=0.0)
        kb.record(report(3, [("rock", 50)]), now=0.0)
        best = kb.best_providers(["jazz"], k=2)
        assert best == [BPID("liglo", 2), BPID("liglo", 1)]


class TestKnowledgeStrategy:
    def obs(self, n, answers=0, current=False):
        return PeerObservation(
            bpid=BPID("liglo", n),
            address=IPAddress(f"10.0.0.{n}"),
            answers=answers,
            hops=1,
            is_current=current,
        )

    def test_ranks_by_profile_content(self):
        kb = KnowledgeBase()
        kb.record(report(1, [("jazz", 2)]), now=0.0)
        kb.record(report(2, [("jazz", 8)]), now=0.0)
        strategy = KnowledgeStrategy(kb, profile=["jazz"])
        selected = strategy.select([self.obs(1), self.obs(2)], k=1)
        assert selected[0].bpid.node_id == 2

    def test_observed_answers_break_ties(self):
        kb = KnowledgeBase()  # empty: nobody is known
        strategy = KnowledgeStrategy(kb, profile=["jazz"])
        selected = strategy.select(
            [self.obs(1, answers=1), self.obs(2, answers=7)], k=1
        )
        assert selected[0].bpid.node_id == 2

    def test_empty_profile_rejected(self):
        with pytest.raises(BestPeerError):
            KnowledgeStrategy(KnowledgeBase(), profile=[])


class TestDiscoveryEndToEnd:
    def build(self):
        net = build_network(
            4, config=BestPeerConfig(agent_costs=FAST), topology=line(4)
        )
        net.nodes[1].share(["jazz"], b"x" * 100)
        net.nodes[2].share(["jazz"], b"y" * 100)
        net.nodes[2].share(["jazz"], b"z" * 100)
        net.nodes[3].share(["rock"], b"w" * 300)
        return net

    def test_reports_cover_all_reachable_nodes(self):
        net = self.build()
        net.base.discover()
        net.sim.run()
        assert len(net.base.knowledge) == 3
        two = net.base.knowledge.reports[net.nodes[2].bpid]
        assert two.object_count == 2
        assert two.total_bytes == 200
        assert two.count_for("jazz") == 2

    def test_reports_feed_shipping_estimates(self):
        net = self.build()
        net.base.discover()
        net.sim.run()
        estimate = net.base._estimates[net.nodes[3].bpid]
        assert estimate.store_bytes == 300

    def test_knowledge_guides_reconfiguration(self):
        """Discovery finds the best jazz provider before any query."""
        net = self.build()
        net.base.discover()
        net.sim.run()
        net.base.strategy = KnowledgeStrategy(net.base.knowledge, ["jazz"])
        net.base.config = BestPeerConfig(
            max_direct_peers=1, agent_costs=FAST
        )
        handle = net.base.issue_query("jazz")
        net.sim.run()
        net.base.finish_query(handle)
        # Node 2 (two jazz objects) wins the single peer slot.
        assert net.base.peers.bpids() == [net.nodes[2].bpid]

    def test_discover_requires_join(self):
        from repro.core.node import BestPeerNode
        from repro.net import Network
        from repro.sim import Simulator

        node = BestPeerNode(Network(Simulator()), "loner")
        with pytest.raises(BestPeerError):
            node.discover()
