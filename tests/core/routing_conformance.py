"""Reusable conformance battery for routing strategies.

Subclass :class:`StrategyConformance` in a test module and every
strategy registered in :mod:`repro.core.routing` is driven through the
framework's selection and forwarding contracts (the routing analogue of
``tests/net/conformance.py`` for the wire codecs):

* **selection** — at most ``k`` results, no duplicate peers, results
  drawn from the candidate list, stable across fresh same-seed
  instances, and well-behaved on the degenerate inputs (empty set, all
  candidates silent, all candidates current);
* **suspect exclusion** — a node running the strategy never re-selects
  a peer it suspects dead, however many answers that peer held: its
  reconfiguration leaves suspects out of the strategy's input;
* **forwarding** — ``flood_targets`` returns a duplicate-free subset of
  the live (non-suspect) peers' addresses and never resurrects a
  suspect peer.

Any future strategy registered by name inherits the whole battery
automatically — the fixture parametrizes over the registry, not a
hand-kept list.
"""

from __future__ import annotations

import pytest

from repro.core.builder import build_network
from repro.core.config import BestPeerConfig
from repro.core.peers import PeerInfo
from repro.core.routing import (
    PeerObservation,
    make_routing_strategy,
    registered_strategies,
)
from repro.ids import BPID
from repro.net.address import IPAddress
from repro.topology.builders import star


def observation(
    n: int,
    answers: int = 0,
    hops: int | None = None,
    current: bool = False,
) -> PeerObservation:
    return PeerObservation(
        bpid=BPID("liglo", n),
        address=IPAddress(f"10.0.0.{n}"),
        answers=answers,
        hops=hops,
        is_current=current,
    )


def peer(n: int, suspect: bool = False) -> PeerInfo:
    return PeerInfo(
        bpid=BPID("liglo", n), address=IPAddress(f"10.0.0.{n}"), suspect=suspect
    )


def mixed_candidates() -> list[PeerObservation]:
    """A spread of answer counts, hops and current flags."""
    return [
        observation(1, answers=5, hops=2, current=True),
        observation(2, answers=0, current=True),
        observation(3, answers=9, hops=4),
        observation(4, answers=2, hops=1),
        observation(5, answers=9, hops=1),
        observation(6),
    ]


class StrategyConformance:
    """Mixin: parametrizes every test over all registered strategies."""

    @pytest.fixture(params=sorted(registered_strategies()))
    def name(self, request) -> str:
        return request.param

    @pytest.fixture
    def strategy(self, name):
        return make_routing_strategy(name)

    # -- registry ------------------------------------------------------------

    def test_registered_name_matches_instance(self, name, strategy):
        assert strategy.name == name

    # -- selection -----------------------------------------------------------

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_select_returns_at_most_k(self, strategy, k):
        assert len(strategy.select(mixed_candidates(), k)) <= k

    def test_select_never_duplicates(self, strategy):
        selected = strategy.select(mixed_candidates(), 6)
        assert len({obs.bpid for obs in selected}) == len(selected)

    def test_select_draws_from_candidates(self, strategy):
        candidates = mixed_candidates()
        for obs in strategy.select(candidates, 4):
            assert obs in candidates

    def test_fresh_instances_agree(self, name):
        """Same registered name, same defaults → same selection (every
        deployment builds its own strategies)."""
        candidates = mixed_candidates()
        first = make_routing_strategy(name).select(candidates, 3)
        second = make_routing_strategy(name).select(candidates, 3)
        assert [obs.bpid for obs in first] == [obs.bpid for obs in second]

    def test_empty_candidates(self, strategy):
        assert strategy.select([], 4) == []

    def test_all_silent_candidates(self, strategy):
        silent = [observation(n) for n in range(1, 6)]
        selected = strategy.select(silent, 3)
        assert len(selected) <= 3
        assert all(obs in silent for obs in selected)

    def test_all_current_candidates(self, strategy):
        current = [observation(n, answers=n, current=True) for n in range(1, 6)]
        selected = strategy.select(current, 3)
        assert len(selected) <= 3
        assert all(obs.is_current for obs in selected)

    def test_select_for_honours_contract(self, strategy):
        candidates = mixed_candidates()
        selected = strategy.select_for(candidates, 3, keyword="jazz")
        assert len(selected) <= 3
        assert len({obs.bpid for obs in selected}) == len(selected)
        assert all(obs in candidates for obs in selected)

    # -- suspect exclusion ---------------------------------------------------

    @staticmethod
    def _reconfigured_after_suspecting(name: str, suspects: int) -> tuple[list, list]:
        """A star base running ``name`` suspects its first ``suspects``
        peers (each holding the most matches), then finishes a query:
        (the suspects, its peers after the reconfiguration)."""
        net = build_network(
            5, config=BestPeerConfig(max_direct_peers=4, strategy=name), topology=star(5)
        )
        base = net.base
        for index, node in enumerate(net.nodes[1:], start=1):
            copies = 10 if index <= suspects else 1
            for copy in range(copies):
                node.share(["jazz"], bytes([index, copy]))
        suspected = [node.bpid for node in net.nodes[1 : 1 + suspects]]
        for bpid in suspected:
            base.peers.note_timeout(bpid, threshold=1)
        handle = base.issue_query("jazz", auto_finish_after=1.0)
        net.sim.run()
        assert handle.finished
        return suspected, base.peers.bpids()

    def test_never_selects_suspects(self, name):
        suspected, after = self._reconfigured_after_suspecting(name, suspects=2)
        assert not set(after) & set(suspected)

    def test_all_suspects_selects_nothing(self, name):
        _suspected, after = self._reconfigured_after_suspecting(name, suspects=4)
        assert after == []

    # -- forwarding ----------------------------------------------------------

    def test_flood_targets_subset_of_live_peers(self, strategy):
        peers = [peer(1), peer(2, suspect=True), peer(3), peer(4)]
        targets = strategy.flood_targets("jazz", peers)
        live = {p.address for p in peers if not p.suspect}
        assert set(targets) <= live
        assert len(set(targets)) == len(targets)

    def test_flood_targets_skips_suspects(self, strategy):
        peers = [peer(1, suspect=True), peer(2, suspect=True)]
        assert strategy.flood_targets("jazz", peers) == []

    def test_flood_targets_empty_table(self, strategy):
        assert strategy.flood_targets("jazz", []) == []

    def test_flood_targets_accepts_no_keyword(self, strategy):
        """Relays forward without keyword context (the agent clone is
        still in flight); strategies must cope with ``keyword=None``."""
        peers = [peer(1), peer(2)]
        targets = strategy.flood_targets(None, peers)
        assert set(targets) <= {p.address for p in peers}
