"""Tests for reconfiguration strategies."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.routing import (
    MaxCountStrategy,
    MinHopsStrategy,
    PeerObservation,
    RandomReplacementStrategy,
    StaticStrategy,
    make_routing_strategy,
)
from repro.errors import BestPeerError
from repro.ids import BPID
from repro.net.address import IPAddress


def obs(n, answers=0, hops=None, current=False):
    return PeerObservation(
        bpid=BPID("liglo", n),
        address=IPAddress(f"10.0.0.{n}"),
        answers=answers,
        hops=hops,
        is_current=current,
    )


class TestMaxCount:
    def test_keeps_top_answerers(self):
        strategy = MaxCountStrategy()
        candidates = [
            obs(1, answers=5, current=True),
            obs(2, answers=0, current=True),
            obs(3, answers=9),
            obs(4, answers=2),
        ]
        selected = strategy.select(candidates, k=2)
        assert [o.bpid.node_id for o in selected] == [3, 1]

    def test_silent_current_peers_displaced(self):
        """The Figure 2 scenario: responders replace silent peers."""
        strategy = MaxCountStrategy()
        candidates = [
            obs(1, answers=0, current=True),  # peer A: nothing
            obs(2, answers=0, current=True),  # peer B: nothing
            obs(3, answers=4),  # peer C: responder
            obs(4, answers=6),  # peer E: responder
        ]
        selected = strategy.select(candidates, k=4)
        assert {o.bpid.node_id for o in selected} == {1, 2, 3, 4}
        selected_small = strategy.select(candidates, k=2)
        assert {o.bpid.node_id for o in selected_small} == {3, 4}

    def test_tie_break_prefers_current(self):
        strategy = MaxCountStrategy()
        candidates = [obs(5, answers=3), obs(2, answers=3, current=True)]
        selected = strategy.select(candidates, k=1)
        assert selected[0].bpid.node_id == 2

    def test_deterministic_tie_break(self):
        strategy = MaxCountStrategy()
        candidates = [obs(3, answers=1), obs(1, answers=1), obs(2, answers=1)]
        first = strategy.select(candidates, k=2)
        second = strategy.select(list(reversed(candidates)), k=2)
        assert [o.bpid for o in first] == [o.bpid for o in second]

    def test_fewer_candidates_than_k(self):
        strategy = MaxCountStrategy()
        selected = strategy.select([obs(1, answers=1)], k=8)
        assert len(selected) == 1


class TestMinHops:
    def test_prefers_larger_hops(self):
        strategy = MinHopsStrategy()
        candidates = [
            obs(1, answers=5, hops=1),
            obs(2, answers=3, hops=4),
            obs(3, answers=1, hops=2),
        ]
        selected = strategy.select(candidates, k=2)
        assert [o.bpid.node_id for o in selected] == [2, 3]

    def test_hops_tie_broken_by_answers(self):
        strategy = MinHopsStrategy()
        candidates = [obs(1, answers=2, hops=3), obs(2, answers=7, hops=3)]
        selected = strategy.select(candidates, k=1)
        assert selected[0].bpid.node_id == 2

    def test_silent_peers_rank_last(self):
        strategy = MinHopsStrategy()
        candidates = [
            obs(1, current=True),  # silent: no hops evidence
            obs(2, answers=1, hops=1),
        ]
        selected = strategy.select(candidates, k=1)
        assert selected[0].bpid.node_id == 2


class TestRandomReplacement:
    def test_deterministic_per_seed(self):
        candidates = [obs(i, answers=i) for i in range(10)]
        a = RandomReplacementStrategy(seed=3).select(candidates, k=4)
        b = RandomReplacementStrategy(seed=3).select(candidates, k=4)
        assert [o.bpid for o in a] == [o.bpid for o in b]

    def test_returns_k(self):
        candidates = [obs(i) for i in range(10)]
        assert len(RandomReplacementStrategy().select(candidates, k=4)) == 4

    def test_small_candidate_set(self):
        candidates = [obs(1), obs(2)]
        assert len(RandomReplacementStrategy().select(candidates, k=5)) == 2


class TestStatic:
    def test_keeps_only_current(self):
        strategy = StaticStrategy()
        candidates = [obs(1, answers=9), obs(2, answers=0, current=True)]
        selected = strategy.select(candidates, k=4)
        assert [o.bpid.node_id for o in selected] == [2]


class TestFactory:
    def test_known_names(self):
        for name in ["maxcount", "minhops", "random", "static"]:
            assert make_routing_strategy(name).name == name

    def test_unknown_name(self):
        with pytest.raises(BestPeerError):
            make_routing_strategy("oracle")


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=1, max_value=7),
            st.booleans(),
        ),
        max_size=20,
        unique_by=lambda t: t[0],
    ),
    st.integers(min_value=1, max_value=10),
)
def test_strategies_respect_k_and_candidates(entries, k):
    candidates = [
        obs(n, answers=answers, hops=hops, current=current)
        for n, answers, hops, current in entries
    ]
    for name in ["maxcount", "minhops", "random"]:
        strategy = make_routing_strategy(name)
        selected = strategy.select(candidates, k)
        assert len(selected) <= k
        assert len({o.bpid for o in selected}) == len(selected)
        assert all(o in candidates for o in selected)
    # MaxCount keeps a maximal set: no unselected candidate strictly
    # beats a selected one on the answer count.
    maxcount = MaxCountStrategy().select(candidates, k)
    if len(maxcount) == k and len(candidates) > k:
        floor = min(o.answers for o in maxcount)
        for candidate in candidates:
            if candidate not in maxcount:
                assert candidate.answers <= floor
