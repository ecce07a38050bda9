"""End-to-end in-network top-k query processing.

Drives whole BestPeer deployments with ``BestPeerConfig.top_k`` set and
checks the contract from the initiator's chair: the merged top-k always
equals exhaustive-then-truncate, dominated answers die in-network
(digests instead of payloads), and the legacy exhaustive path — k=None
— is behaviourally untouched.
"""

import pytest

from repro.agents.costs import AgentCosts
from repro.agents.messages import AnswerMessage
from repro.agents.storm_agent import StorMSearchAgent
from repro.agents.topk import (
    ScoredAnswer,
    TopKDigest,
    TopKSearchAgent,
)
from repro.core import BestPeerConfig, build_network
from repro.errors import BestPeerError
from repro.topology import line, star

FAST = AgentCosts(
    class_install_time=0.005,
    state_install_time=0.001,
    execute_overhead=0.0,
    page_io_time=0.0001,
    object_match_time=0.000001,
)


def config(**overrides):
    defaults = dict(max_direct_peers=8, agent_costs=FAST, ttl=7)
    defaults.update(overrides)
    return BestPeerConfig(**defaults)


def gradient_fill(node, index):
    """Three matches per node but the base (index 0), with
    node-and-object-varying TF scores."""
    if index == 0:
        return
    for i in range(3):
        node.share(["jazz"] + ["pad"] * ((index + i) % 5), bytes([index]) * 64)


def run_query(node_count=6, topology=None, fill=gradient_fill, **overrides):
    net = build_network(
        node_count,
        config=config(**overrides),
        topology=topology if topology is not None else line(node_count),
    )
    net.populate(fill)
    handle = net.base.issue_query("jazz")
    net.sim.run()
    return net, handle


class TestTopKEndToEnd:
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_topk_equals_exhaustive_truncate(self, k):
        _net, exhaustive = run_query()
        _net2, topk = run_query(top_k=k)
        assert topk.top_answers() == exhaustive.top_answers(k)

    def test_topk_on_star_topology(self):
        _net, exhaustive = run_query(topology=star(6))
        _net2, topk = run_query(topology=star(6), top_k=3)
        assert topk.top_answers() == exhaustive.top_answers(3)

    def test_dominated_answers_die_in_network(self):
        _net, exhaustive = run_query()
        _net2, topk = run_query(top_k=2)
        assert exhaustive.network_answer_count == 15  # 5 nodes x 3 objects
        assert topk.network_answer_count < exhaustive.network_answer_count
        assert topk.dominated_dropped > 0
        # Every network answer travelling in top-k mode is scored.
        assert all(isinstance(a, ScoredAnswer) for a in topk.answers)
        assert all(isinstance(d, TopKDigest) for d in topk.digests)

    def test_conservation_of_matches(self):
        # survivors + dominated = every match in the network.
        _net, topk = run_query(top_k=2)
        assert topk.network_answer_count + topk.dominated_dropped == 15

    def test_initiator_seed_tightens_threshold_from_hop_one(self):
        def weak_everywhere(node, index):
            if index:
                node.share(["jazz"] + ["pad"] * 4, bytes([index]) * 64)

        net = build_network(6, config=config(top_k=2), topology=line(6))
        net.populate(weak_everywhere)
        net.base.share(["jazz"], b"b" * 64)  # score 1.0 at the base
        net.base.share(["jazz"], b"B" * 64)
        topk = net.base.issue_query("jazz")
        net.sim.run()
        # The initiator already holds the global top-2: every remote
        # match is dominated on arrival, so only digests come back.
        assert topk.network_answer_count == 0
        assert topk.dominated_dropped == 5
        assert len(topk.digests) == 5
        top = topk.top_answers()
        assert [score for score, _h, _r in top] == [1.0, 1.0]
        assert all(holder == net.base.bpid for _s, holder, _r in top)

    def test_digest_carries_liveness_and_resets_quiet_period(self):
        def weak_everywhere(node, index):
            if index:
                node.share(["jazz", "pad"], bytes([index]) * 64)

        net = build_network(6, config=config(top_k=1), topology=line(6))
        net.populate(weak_everywhere)
        net.base.share(["jazz"], b"b" * 64)
        handle = net.base.issue_query("jazz")
        net.sim.run()
        assert handle.last_arrival is not None  # digests count as activity
        assert handle.digest_times == sorted(handle.digest_times)

    def test_metadata_mode_ships_no_payloads(self):
        _net, handle = run_query(top_k=3, result_mode="metadata")
        items = [item for answer in handle.answers for item in answer.items]
        assert items and all(item.payload is None for item in items)
        assert all(item.size > 0 for item in items)

    def test_scored_answers_feed_reconfiguration(self):
        net, handle = run_query(top_k=3)
        net.base.finish_query(handle)
        # ScoredAnswer duck-types AnswerMessage: responders become
        # reconfiguration candidates exactly like exhaustive answers.
        assert len(net.base.peers) >= 1

    def test_statistics_count_dominated(self):
        net, _handle = run_query(top_k=2)
        assert net.base.statistics()["dominated_dropped"] > 0

    def test_use_index_and_scan_agree_end_to_end(self):
        _net, scanned = run_query(top_k=3)
        _net2, indexed = run_query(top_k=3, use_index=True)
        assert indexed.top_answers() == scanned.top_answers()

    def test_search_own_store_disabled(self):
        _net, handle = run_query(top_k=3, search_own_store=False)
        assert handle.local_scored is None
        assert handle.top_answers()  # network answers still ranked


class TestLegacyPathPreserved:
    def test_k_none_uses_legacy_agent(self):
        net, handle = run_query()
        assert handle.top_k is None
        registry = net.nodes[1].engine.registry
        assert registry.has("StorMSearchAgent")
        assert not registry.has("TopKSearchAgent")
        assert all(type(a) is AnswerMessage for a in handle.answers)
        assert handle.digests == [] and handle.dominated_dropped == 0


class TestAgentContract:
    def test_agent_validation(self):
        with pytest.raises(ValueError):
            TopKSearchAgent("jazz", 0)
        with pytest.raises(ValueError):
            TopKSearchAgent("jazz", 3, mode="broadcast")

    def test_forward_merges_state_flag(self):
        assert TopKSearchAgent.forward_merges_state is True
        assert StorMSearchAgent.forward_merges_state is False

    def test_state_round_trips_plain(self):
        agent = TopKSearchAgent(
            "jazz", 4, entries=[(0.5, "10.0.0.1", 3, 1, 2)]
        )
        state = agent.get_state()
        clone = TopKSearchAgent.from_state(state)
        assert clone.keyword == "jazz" and clone.k == 4
        assert clone.entries == [(0.5, "10.0.0.1", 3, 1, 2)]

    def test_config_validation(self):
        with pytest.raises(BestPeerError):
            BestPeerConfig(top_k=0)
        with pytest.raises(BestPeerError):
            BestPeerConfig(top_k=0x10000)
        assert BestPeerConfig(top_k=16).top_k == 16
