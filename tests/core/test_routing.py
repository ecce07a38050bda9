"""Routing framework tests: conformance battery + strategy behaviour.

``TestStrategyConformance`` drives every registered strategy through
the shared battery in ``routing_conformance.py``.  The rest of the
module covers what the battery can't: the registry surface, hypothesis
properties (permutation invariance for the paper strategies, history
convergence to a planted hot peer), the new strategies' specific
rankings, and the RandomReplacement RNG-scoping bugfix.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.routing import (
    CostAwareStrategy,
    QueryHistoryStrategy,
    RandomReplacementStrategy,
    RoutingStrategy,
    SuperPeerStrategy,
    make_routing_strategy,
    registered_strategies,
)
from repro.core.routing.base import register_strategy
from repro.errors import BestPeerError
from tests.core.routing_conformance import (
    StrategyConformance,
    mixed_candidates,
    observation,
    peer,
)

EXPECTED_STRATEGIES = {
    "maxcount",
    "minhops",
    "random",
    "static",
    "history",
    "superpeer",
    "costaware",
}


class TestStrategyConformance(StrategyConformance):
    """Every registered strategy through the shared battery."""


class TestRegistry:
    def test_all_expected_strategies_registered(self):
        assert set(registered_strategies()) == EXPECTED_STRATEGIES

    def test_factory_builds_each(self):
        for name in EXPECTED_STRATEGIES:
            assert make_routing_strategy(name).name == name

    def test_unknown_name_lists_known(self):
        with pytest.raises(BestPeerError, match="unknown routing strategy"):
            make_routing_strategy("oracle")

    def test_abstract_name_cannot_register(self):
        with pytest.raises(BestPeerError):

            @register_strategy
            class Nameless(RoutingStrategy):
                name = "abstract"


# -- hypothesis properties ---------------------------------------------------

observation_entries = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=50),  # node id
        st.integers(min_value=0, max_value=20),  # answers
        st.one_of(st.none(), st.integers(min_value=1, max_value=7)),  # hops
        st.booleans(),  # is_current
        st.booleans(),  # suspect
    ),
    max_size=20,
    unique_by=lambda t: t[0],
)


@given(observation_entries, st.integers(min_value=1, max_value=10))
def test_paper_strategies_are_permutation_invariant(entries, k):
    """maxcount/minhops rank by a total order on the observation:
    shuffling the candidate list must not change the selection.  static
    preserves candidate order by design (it *keeps* the current peers),
    so for it only the selected *set* is permutation invariant — and only
    when k has room for every current candidate."""
    candidates = [
        observation(n, answers=a, hops=h, current=c, suspect=s)
        for n, a, h, c, s in entries
    ]
    for name in ["maxcount", "minhops"]:
        forward = make_routing_strategy(name).select(candidates, k)
        backward = make_routing_strategy(name).select(
            list(reversed(candidates)), k
        )
        assert [obs.bpid for obs in forward] == [obs.bpid for obs in backward]
    current = [o for o in candidates if o.is_current and not o.suspect]
    if k >= len(current):
        static = make_routing_strategy("static")
        assert {o.bpid for o in static.select(candidates, k)} == {
            o.bpid for o in static.select(list(reversed(candidates)), k)
        }


@given(observation_entries, st.integers(min_value=1, max_value=10))
def test_every_strategy_respects_k_dedup_and_suspects(entries, k):
    candidates = [
        observation(n, answers=a, hops=h, current=c, suspect=s)
        for n, a, h, c, s in entries
    ]
    for name in registered_strategies():
        selected = make_routing_strategy(name).select(candidates, k)
        assert len(selected) <= k
        assert len({obs.bpid for obs in selected}) == len(selected)
        assert all(obs in candidates for obs in selected)
        assert all(not obs.suspect for obs in selected)


@settings(deadline=None)
@given(
    st.integers(min_value=2, max_value=8),  # peers
    st.integers(min_value=3, max_value=12),  # queries observed
    st.floats(min_value=0.1, max_value=1.0),  # alpha
)
def test_history_converges_to_planted_hot_peer(peers, rounds, alpha):
    """One peer answers every query, the rest never do: after a few
    observations the hot peer must lead both selection and fan-out."""
    strategy = QueryHistoryStrategy(alpha=alpha)
    hot = peers - 1  # deliberately the worst BPID tie-break position
    for _ in range(rounds):
        strategy.observe(
            "jazz",
            [
                observation(n, answers=3 if n == hot else 0)
                for n in range(peers)
            ],
        )
    # Selection with no fresh evidence (all answers 0): history decides.
    ranked = strategy.select_for(
        [observation(n) for n in range(peers)], k=1, keyword="jazz"
    )
    assert ranked[0].bpid.node_id == hot
    # Fan-out visits the hot peer first.
    targets = strategy.flood_targets("jazz", [peer(n) for n in range(peers)])
    assert targets[0] == peer(hot).address


# -- query-history specifics -------------------------------------------------


class TestQueryHistory:
    def test_validates_parameters(self):
        with pytest.raises(BestPeerError):
            QueryHistoryStrategy(alpha=0.0)
        with pytest.raises(BestPeerError):
            QueryHistoryStrategy(alpha=1.5)
        with pytest.raises(BestPeerError):
            QueryHistoryStrategy(fanout=0)

    def test_scores_are_per_keyword(self):
        strategy = QueryHistoryStrategy()
        strategy.observe("jazz", [observation(1, answers=2)])
        assert strategy.score("jazz", observation(1).bpid) == 1.0
        assert strategy.score("blues", observation(1).bpid) == 0.0

    def test_keyword_normalization(self):
        strategy = QueryHistoryStrategy()
        strategy.observe("  Jazz ", [observation(1, answers=1)])
        assert strategy.score("jazz", observation(1).bpid) == 1.0

    def test_ewma_decays_after_misses(self):
        strategy = QueryHistoryStrategy(alpha=0.5)
        strategy.observe("jazz", [observation(1, answers=1)])
        assert strategy.score("jazz", observation(1).bpid) == 1.0
        strategy.observe("jazz", [observation(1, answers=0)])
        assert strategy.score("jazz", observation(1).bpid) == 0.5

    def test_empty_history_reproduces_default_fanout(self):
        strategy = QueryHistoryStrategy()
        peers = [peer(3), peer(1), peer(2, suspect=True), peer(4)]
        assert strategy.flood_targets("jazz", peers) == (
            RoutingStrategy().flood_targets("jazz", peers)
        )

    def test_fanout_caps_targets(self):
        strategy = QueryHistoryStrategy(fanout=2)
        targets = strategy.flood_targets("jazz", [peer(n) for n in range(5)])
        assert len(targets) == 2

    def test_bind_adopts_config_fanout(self):
        strategy = QueryHistoryStrategy()
        node = SimpleNamespace(config=SimpleNamespace(routing_fanout=3))
        strategy.bind(node)
        targets = strategy.flood_targets("jazz", [peer(n) for n in range(6)])
        assert len(targets) == 3


# -- cost-aware specifics ----------------------------------------------------


class TestCostAware:
    def test_validates_smoothing(self):
        with pytest.raises(BestPeerError):
            CostAwareStrategy(smoothing=0.0)

    def test_unbound_degenerates_to_yield_order(self):
        strategy = CostAwareStrategy()
        candidates = [observation(1, answers=2), observation(2, answers=7)]
        assert strategy.select(candidates, 1)[0].bpid.node_id == 2

    def test_cheap_link_wins_at_equal_yield(self):
        strategy = CostAwareStrategy()
        cheap = observation(1, answers=3)
        pricey = observation(2, answers=3)
        strategy._cost_of = (
            lambda address: 0.001 if address == cheap.address else 0.1
        )
        assert strategy.select([pricey, cheap], 1)[0] is cheap

    def test_yield_can_buy_back_an_expensive_link(self):
        strategy = CostAwareStrategy(smoothing=1.0)
        cheap_silent = observation(1, answers=0)
        pricey_loaded = observation(2, answers=99)
        strategy._cost_of = (
            lambda address: 0.001 if address == cheap_silent.address else 0.01
        )
        # (99+1)/0.01 = 10000 > (0+1)/0.001 = 1000
        assert strategy.select([cheap_silent, pricey_loaded], 1)[0] is pricey_loaded


# -- super-peer specifics ----------------------------------------------------


class TestSuperPeer:
    def test_flags_hint_directory(self):
        assert SuperPeerStrategy.uses_hint_directory
        assert not RoutingStrategy.uses_hint_directory

    def test_selection_matches_maxcount(self):
        candidates = mixed_candidates()
        assert [
            obs.bpid for obs in SuperPeerStrategy().select(candidates, 3)
        ] == [
            obs.bpid
            for obs in make_routing_strategy("maxcount").select(candidates, 3)
        ]


# -- RandomReplacement RNG scoping (the bugfix) ------------------------------


class TestRandomRngScoping:
    """Pre-framework, ``random`` seeded ``random.Random(seed)`` directly:
    every node with the default seed shared one global sample sequence.
    The stream now derives from ``(seed, "routing", "random", node
    name)``."""

    def _bound(self, name: str, seed: int = 0) -> RandomReplacementStrategy:
        strategy = RandomReplacementStrategy(seed=seed)
        strategy.bind(SimpleNamespace(name=name))
        return strategy

    def test_same_node_replays_identically(self):
        candidates = [observation(n) for n in range(12)]
        a = [self._bound("node-1").select(candidates, 4) for _ in range(3)]
        b = [self._bound("node-1").select(candidates, 4) for _ in range(3)]
        assert [[o.bpid for o in sel] for sel in a] == [
            [o.bpid for o in sel] for sel in b
        ]

    def test_same_seed_different_nodes_draw_independent_streams(self):
        candidates = [observation(n) for n in range(12)]
        streams = {}
        for name in ["node-1", "node-2", "node-3"]:
            strategy = self._bound(name)
            streams[name] = [
                tuple(o.bpid for o in strategy.select(candidates, 4))
                for _ in range(4)
            ]
        # No two nodes walk the same sequence (seed alone is not the state).
        assert len(set(map(tuple, streams.values()))) == len(streams)

    def test_rebinding_resets_the_stream(self):
        """A worker process reconstructing the node mid-sweep gets the
        same stream the serial run used — bind() re-derives from scratch."""
        candidates = [observation(n) for n in range(12)]
        first = self._bound("node-1")
        first.select(candidates, 4)  # advance the stream
        first.bind(SimpleNamespace(name="node-1"))
        replay = self._bound("node-1")
        assert [o.bpid for o in first.select(candidates, 4)] == [
            o.bpid for o in replay.select(candidates, 4)
        ]

    def test_unbound_instances_with_same_seed_agree(self):
        candidates = [observation(n) for n in range(12)]
        a = RandomReplacementStrategy(seed=7).select(candidates, 4)
        b = RandomReplacementStrategy(seed=7).select(candidates, 4)
        assert [o.bpid for o in a] == [o.bpid for o in b]


# -- config + node wiring ----------------------------------------------------


class TestConfigWiring:
    def test_config_validates_routing_fanout(self):
        from repro.core.config import BestPeerConfig

        with pytest.raises(BestPeerError):
            BestPeerConfig(routing_fanout=0)
        assert BestPeerConfig(routing_fanout=3).routing_fanout == 3

    def test_config_validates_hint_timeout(self):
        from repro.core.config import BestPeerConfig

        with pytest.raises(BestPeerError):
            BestPeerConfig(hint_timeout=0.0)

    def test_builder_strategy_override(self):
        from repro.core.builder import build_network
        from repro.core.config import BestPeerConfig

        net = build_network(
            2, config=BestPeerConfig(strategy="maxcount"), strategy="costaware"
        )
        assert all(node.strategy.name == "costaware" for node in net.nodes)

    def test_costaware_bound_reads_live_link_costs(self):
        from repro.core.builder import build_network
        from repro.net.link import LinkModel

        net = build_network(3, strategy="costaware")
        base = net.base
        near, far = net.nodes[1], net.nodes[2]
        net.network.set_link(
            base.host.address, far.host.address, LinkModel(latency=0.5)
        )
        assert base.strategy.cost(far.host.address) == pytest.approx(0.5)
        assert base.strategy.cost(near.host.address) < 0.5
        # Equal yield: the cheap link wins the only slot.
        from repro.core.routing import PeerObservation

        cheap = PeerObservation(
            bpid=near.liglo.bpid, address=near.host.address, answers=2
        )
        pricey = PeerObservation(
            bpid=far.liglo.bpid, address=far.host.address, answers=2
        )
        selected = base.strategy.select([pricey, cheap], 1)
        assert selected[0] is cheap

    def test_history_fanout_trims_flood(self):
        from repro.core.builder import build_network
        from repro.core.config import BestPeerConfig
        from repro.topology.builders import star

        config = BestPeerConfig(
            max_direct_peers=8, strategy="history", routing_fanout=2
        )
        net = build_network(5, config=config, topology=star(5))
        assert len(net.base._flood_addresses()) == 2

    def test_publish_hints_config_without_superpeer(self):
        from repro.core.builder import build_network
        from repro.core.config import BestPeerConfig

        config = BestPeerConfig(strategy="maxcount", publish_hints=True)
        net = build_network(3, config=config)
        net.nodes[1].share(["jazz"], b"payload")
        net.sim.run()
        assert net.liglo_servers[0].hint_index.get("jazz") == {
            net.nodes[1].liglo.bpid.node_id
        }
        # Re-sharing the same keyword publishes nothing new.
        before = net.liglo_servers[0].hint_publishes
        net.nodes[1].share(["jazz"], b"other payload")
        net.sim.run()
        assert net.liglo_servers[0].hint_publishes == before
