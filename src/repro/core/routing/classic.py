"""The paper's strategies.

They shape selection only; the inherited default :meth:`flood_targets`
floods every non-suspect direct peer in table order.

* **MaxCount** — "sorts the peers based on the number of answers they
  returned ... ties are arbitrarily broken.  The k peers with the
  highest values are retained."  (Our arbitrary tie-break is
  deterministic: current peers first, then BPID order, so runs are
  reproducible.)
* **MinHops** — "orders peers based on the number of hops, and pick
  those with the larger hops values as the immediate peers.  In the
  event of ties, the one with the larger number of answers is
  preferred."  Bringing far answer-bearers close minimizes the hops
  needed to reach everything.
* **random** — uniformly random replacement, the ablation control.
* **static** — no reconfiguration (the paper's BPS scheme).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.routing.base import (
    PeerObservation,
    RoutingStrategy,
    eligible,
    register_strategy,
)
from repro.util.randomness import derive_rng


@register_strategy
class MaxCountStrategy(RoutingStrategy):
    """Keep the peers that returned the most answers."""

    name = "maxcount"
    stateless = True

    def select(
        self, candidates: Sequence[PeerObservation], k: int
    ) -> list[PeerObservation]:
        ranked = sorted(
            eligible(candidates),
            key=lambda obs: (-obs.answers, not obs.is_current, str(obs.bpid)),
        )
        return ranked[:k]


@register_strategy
class MinHopsStrategy(RoutingStrategy):
    """Keep the *farthest* answer-bearing peers (larger hops first).

    Candidates that returned no answers carry no hops evidence and rank
    below every responder.
    """

    name = "minhops"
    stateless = True

    def select(
        self, candidates: Sequence[PeerObservation], k: int
    ) -> list[PeerObservation]:
        ranked = sorted(
            eligible(candidates),
            key=lambda obs: (
                -(obs.hops if obs.hops is not None else -1),
                -obs.answers,
                not obs.is_current,
                str(obs.bpid),
            ),
        )
        return ranked[:k]


@register_strategy
class RandomReplacementStrategy(RoutingStrategy):
    """Keep a uniformly random subset — the ablation control.

    The sample stream routes through :func:`repro.util.randomness.derive_rng`
    (like the fault plans do), scoped by ``(seed, node name)``: two nodes
    configured with the same seed draw *independent* streams, and the
    same node replays the same stream bit-identically in every instance
    built from the same scope.  (The pre-framework version seeded ``random.Random(seed)``
    directly, so every node with the default seed walked one identical
    sequence.)
    """

    name = "random"

    def __init__(self, seed: int = 0, scope: str = ""):
        self._seed = seed
        self._scope = scope
        self._rng = derive_rng(seed, "routing", "random", scope)

    def bind(self, node) -> None:
        self._scope = node.name
        self._rng = derive_rng(self._seed, "routing", "random", node.name)

    def select(
        self, candidates: Sequence[PeerObservation], k: int
    ) -> list[PeerObservation]:
        ordered = sorted(eligible(candidates), key=lambda obs: str(obs.bpid))
        if len(ordered) <= k:
            return ordered
        return self._rng.sample(ordered, k)


@register_strategy
class StaticStrategy(RoutingStrategy):
    """No reconfiguration: current peers stay (the paper's BPS scheme)."""

    name = "static"
    stateless = True

    def select(
        self, candidates: Sequence[PeerObservation], k: int
    ) -> list[PeerObservation]:
        return [obs for obs in eligible(candidates) if obs.is_current][:k]
