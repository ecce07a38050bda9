"""Plugging in your own reconfiguration strategy.

The paper: "nodes can redefine the number of direct peers it would like
to have and implement their own reconfiguration strategies".  This
example writes one — a *loyalty-weighted* MaxCount that blends the
latest query's answers with a peer's lifetime contribution, so a single
quiet query does not evict a historically excellent peer — and runs it
head-to-head against plain MaxCount on a workload designed to punish
short memories (the answer-bearing node alternates between two hosts).

Run:  python examples/custom_strategy.py
"""

from repro import BestPeerConfig, build_network, line
from repro.core.routing import (
    PeerObservation,
    RoutingStrategy,
    make_routing_strategy,
)


class LoyaltyStrategy(RoutingStrategy):
    """Rank by (this query's answers) + loyalty x (answers ever seen)."""

    name = "loyalty"

    def __init__(self, loyalty: float = 0.5):
        self.loyalty = loyalty
        self._lifetime: dict = {}

    def select(self, candidates, k):
        for obs in candidates:
            if obs.answers:
                self._lifetime[obs.bpid] = (
                    self._lifetime.get(obs.bpid, 0) + obs.answers
                )

        def score(obs: PeerObservation) -> float:
            return obs.answers + self.loyalty * self._lifetime.get(obs.bpid, 0)

        ranked = sorted(
            candidates, key=lambda obs: (-score(obs), not obs.is_current, str(obs.bpid))
        )
        return ranked[:k]


def run(strategy_name, strategy=None, rounds=6):
    """Alternating workload: odd queries match node 5, even match node 6."""
    config = BestPeerConfig(max_direct_peers=2, strategy="static")
    net = build_network(8, config=config, topology=line(8))
    if strategy is not None:
        net.base.strategy = strategy
    else:
        net.base.strategy = make_routing_strategy(strategy_name)
    net.nodes[5].share(["odd"], b"x" * 64)
    net.nodes[6].share(["even"], b"y" * 64)
    total = 0.0
    for round_number in range(rounds):
        keyword = "odd" if round_number % 2 else "even"
        handle = net.base.issue_query(keyword)
        net.sim.run()
        total += handle.completion_time or 0.0
        net.base.finish_query(handle)
    return total / rounds


def main() -> None:
    plain = run("maxcount")
    loyal = run("loyalty", strategy=LoyaltyStrategy(loyalty=0.5))
    print("Alternating-keyword workload, average completion per query:")
    print(f"  MaxCount (memoryless): {plain:.4f}s")
    print(f"  LoyaltyStrategy:       {loyal:.4f}s")
    if loyal < plain:
        print(f"  -> loyalty wins by {plain / loyal:.2f}x: it keeps *both* "
              f"providers close instead of evicting the quiet one each round")
    else:
        print("  -> on this run plain MaxCount held its own")


if __name__ == "__main__":
    main()
