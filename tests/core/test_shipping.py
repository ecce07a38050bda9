"""Tests for the code-shipping vs data-shipping decision."""

import pytest

from repro.agents.costs import AgentCosts
from repro.core import BestPeerConfig, build_network
from repro.core.shipping import (
    BANDWIDTH,
    CODE,
    DATA,
    HORIZON,
    AdaptiveShippingPolicy,
    AlwaysCodePolicy,
    AlwaysDataPolicy,
    PeerEstimate,
    make_shipping_policy,
)
from repro.errors import BestPeerError
from repro.topology import star

FAST = AgentCosts(
    class_install_time=0.005,
    state_install_time=0.001,
    execute_overhead=0.0,
    page_io_time=0.0001,
    object_match_time=0.000001,
)


def estimate(store_bytes: int = 0, cached: bool = False) -> PeerEstimate:
    """A node's belief about one peer, as the node accumulates it."""
    belief = PeerEstimate()
    belief.store_bytes, belief.cached = store_bytes, cached
    return belief


class TestPolicies:
    def test_always_code(self):
        policy = AlwaysCodePolicy()
        assert policy.choose(estimate(store_bytes=1)) == CODE
        assert policy.choose(estimate(cached=True)) == CODE

    def test_always_data(self):
        assert AlwaysDataPolicy().choose(estimate()) == DATA

    def test_adaptive_prefers_code_when_store_unknown(self):
        policy = AdaptiveShippingPolicy()
        assert policy.choose(estimate(store_bytes=0)) == CODE

    def test_adaptive_prefers_cache(self):
        policy = AdaptiveShippingPolicy()
        assert policy.choose(estimate(store_bytes=10**9, cached=True)) == DATA

    def test_adaptive_small_store_ships_data(self):
        policy = AdaptiveShippingPolicy()
        small = estimate(store_bytes=1000)
        assert policy.choose(small) == DATA

    def test_adaptive_huge_store_ships_code(self):
        policy = AdaptiveShippingPolicy()
        huge = estimate(store_bytes=10**9)
        assert policy.choose(huge) == CODE

    def test_adaptive_flips_at_the_horizon_break_even(self):
        policy = AdaptiveShippingPolicy()
        # data wins while pulling the store once costs less than HORIZON
        # code-shipped queries
        break_even = HORIZON * policy.code_cost() * BANDWIDTH
        assert policy.choose(estimate(store_bytes=int(break_even) - 1)) == DATA
        assert policy.choose(estimate(store_bytes=int(break_even) + 1)) == CODE

    def test_factory(self):
        for name in ["always-code", "always-data", "adaptive"]:
            assert make_shipping_policy(name).name == name
        with pytest.raises(BestPeerError):
            make_shipping_policy("teleport")


def build(policy, nodes=3):
    config = BestPeerConfig(agent_costs=FAST, shipping_policy=policy)
    net = build_network(nodes, config=config, topology=star(nodes))
    for index, node in enumerate(net.nodes[1:], start=1):
        for i in range(4):
            node.share(["jazz"], bytes([index, i]) * 32)
    return net


class TestSmartQuery:
    def test_code_path_matches_flood_results(self):
        net = build("always-code")
        handle = net.base.smart_query("jazz")
        net.sim.run()
        assert handle.network_answer_count == 8
        assert len(handle.responders) == 2

    def test_data_path_fetches_then_answers(self):
        net = build("always-data")
        handle = net.base.smart_query("jazz")
        net.sim.run()
        assert handle.network_answer_count == 8
        for bpid in [n.bpid for n in net.nodes[1:]]:
            assert net.base.has_cached_data(bpid)

    def test_second_data_query_served_from_cache(self):
        net = build("always-data")
        first = net.base.smart_query("jazz")
        net.sim.run()
        messages_after_first = net.base.host.messages_sent
        second = net.base.smart_query("jazz")
        net.sim.run()
        # No new data requests: answers came from the local mirrors.
        assert net.base.host.messages_sent == messages_after_first
        assert second.network_answer_count == first.network_answer_count

    def test_cached_answers_marked_zero_hops(self):
        net = build("always-data")
        first = net.base.smart_query("jazz")
        net.sim.run()
        second = net.base.smart_query("jazz")
        net.sim.run()
        assert all(a.hops == 0 for a in second.answers)

    def test_adaptive_uses_recorded_store_sizes(self):
        net = build("adaptive")
        small_peer, big_peer = net.nodes[1], net.nodes[2]
        net.base.record_store_size(small_peer.bpid, 1_000)
        net.base.record_store_size(big_peer.bpid, 10**9)
        handle = net.base.smart_query("jazz")
        net.sim.run()
        assert handle.network_answer_count == 8
        # The tiny store was mirrored; the huge one was visited by agent.
        assert net.base.has_cached_data(small_peer.bpid)
        assert not net.base.has_cached_data(big_peer.bpid)

    def test_amortization_beats_repeated_code_shipping(self):
        """The point of the optimizer: repeated queries over a small
        store are cheaper with one data transfer than N agent trips."""
        def run(policy, queries=5):
            net = build(policy)
            elapsed = 0.0
            for _ in range(queries):
                start = net.sim.now
                handle = net.base.smart_query("jazz")
                net.sim.run()
                elapsed += (handle.last_arrival or net.sim.now) - start
            return elapsed

        assert run("always-data") < run("always-code")
