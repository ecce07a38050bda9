"""Cost-aware peer selection: the P4P/ALTO idea.

Rank candidates by answer yield *per unit of network cost*: a peer that
returns the same answers over a cheaper link (lower
:class:`repro.net.link.LinkModel` latency) wins the slot.  Once bound to
a node, the strategy reads live link costs from ``repro.net`` for the
directed pair (this node → candidate); unbound (unit tests, the
conformance battery) every candidate costs the same and the ranking
degenerates to MaxCount's yield order.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.routing.base import (
    PeerObservation,
    RoutingStrategy,
    register_strategy,
)
from repro.net.address import IPAddress

#: Additive yield smoothing, so silent candidates still rank by cost
#: (a cheap silent peer beats an expensive silent peer).
SMOOTHING = 1.0


@register_strategy
class CostAwareStrategy(RoutingStrategy):
    """Rank candidates by ``(answers + SMOOTHING) / link cost``."""

    name = "costaware"

    def __init__(self):
        self._cost_of: Callable[[IPAddress], float] | None = None

    def bind(self, node) -> None:
        network = node.network
        host = node.host

        def link_cost(address: IPAddress) -> float:
            source = host.address
            if source is None:  # offline during churn: no link to price
                return 1.0
            return max(network.link_for(source, address).latency, 1e-9)

        self._cost_of = link_cost

    def cost(self, address: IPAddress) -> float:
        """Current link cost towards ``address`` (1.0 when unbound)."""
        if self._cost_of is None:
            return 1.0
        return self._cost_of(address)

    def select(
        self, candidates: Sequence[PeerObservation], k: int
    ) -> list[PeerObservation]:
        ranked = sorted(
            candidates,
            key=lambda obs: (
                -(obs.answers + SMOOTHING) / self.cost(obs.address),
                not obs.is_current,
                str(obs.bpid),
            ),
        )
        return ranked[:k]
