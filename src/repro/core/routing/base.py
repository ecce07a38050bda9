"""The routing-strategy interface.

A :class:`RoutingStrategy` owns the two routing decisions a BestPeer
node makes:

* **peer selection** — after each query, rank the candidates (current
  direct peers plus every responder) and keep the top ``k``.  This is
  the paper's reconfiguration contract, unchanged.
* **query forwarding** — which direct peers a flood visits, and in what
  order.  Before this framework the fan-out was hard-coded to "every
  non-suspect peer, table order" in ``core/node.py``; strategies can now
  reorder or trim it (and the super-peer strategy can skip the flood
  entirely by consulting its LIGLO's hint directory first).

Strategies register themselves by name at import time; nodes construct
them via :func:`make_routing_strategy` from ``BestPeerConfig.strategy``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import BestPeerError
from repro.ids import BPID
from repro.net.address import IPAddress

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (node -> routing)
    from repro.core.node import BestPeerNode
    from repro.core.peers import PeerInfo

@dataclass(frozen=True, slots=True)
class PeerObservation:
    """Everything a node learned about one candidate in one query."""

    bpid: BPID
    address: IPAddress
    #: answers this candidate returned for the query (0 if silent)
    answers: int = 0
    #: overlay distance piggybacked with the answers; None if silent
    hops: int | None = None
    #: is the candidate currently a direct peer?
    is_current: bool = False


class RoutingStrategy:
    """Ranks candidates and shapes the flood fan-out."""

    name = "abstract"
    #: True when the strategy wants the node to consult its LIGLO's
    #: keyword hint directory before flooding (super-peer routing).
    uses_hint_directory = False
    #: True when instances hold no state, so every node can share one
    #: (:func:`make_routing_strategy` hands out a single instance)
    stateless = False

    # -- lifecycle -------------------------------------------------------------

    def bind(self, node: "BestPeerNode") -> None:
        """Attach node context (name, config, network) after construction.

        Called once by the node that owns this strategy; the default
        needs nothing.  Strategies stay constructible without a node so
        they can be unit-tested standalone.
        """

    # -- peer selection --------------------------------------------------------

    def select(
        self, candidates: Sequence[PeerObservation], k: int
    ) -> list[PeerObservation]:
        """Return at most ``k`` observations, highest priority first."""
        raise NotImplementedError

    def select_for(
        self,
        candidates: Sequence[PeerObservation],
        k: int,
        keyword: str | None = None,
    ) -> list[PeerObservation]:
        """Keyword-aware selection; defaults to plain :meth:`select`."""
        return self.select(candidates, k)

    # -- query forwarding ------------------------------------------------------

    def flood_targets(
        self, keyword: str | None, peers: Sequence["PeerInfo"]
    ) -> list[IPAddress]:
        """Fan-out for a flood: addresses to visit, in visit order.

        The default reproduces the pre-framework behaviour exactly:
        every non-suspect direct peer, in peer-table order.
        """
        return [peer.address for peer in peers if not peer.suspect]

    # -- learning --------------------------------------------------------------

    def observe(
        self, keyword: str, observations: Sequence[PeerObservation]
    ) -> None:
        """Feed one finished query's outcome back into the strategy.

        Called by the node just before selection, with the same
        observation list selection will see.  The default learns
        nothing.
        """


# -- registry -------------------------------------------------------------------

_REGISTRY: dict[str, type[RoutingStrategy]] = {}
#: the one instance of each stateless strategy, by name
_SHARED: dict[str, RoutingStrategy] = {}


def register_strategy(cls: type[RoutingStrategy]) -> type[RoutingStrategy]:
    """Class decorator: make a strategy constructible by name."""
    if not cls.name or cls.name == "abstract":
        raise BestPeerError(f"{cls.__name__} needs a concrete name to register")
    _REGISTRY[cls.name] = cls
    if cls.stateless:
        _SHARED[cls.name] = cls()
    return cls


def registered_strategies() -> dict[str, type[RoutingStrategy]]:
    """Every registered strategy class, keyed and sorted by name."""
    return dict(sorted(_REGISTRY.items()))


def make_routing_strategy(name: str) -> RoutingStrategy:
    """Construct a routing strategy by registered name (a stateless one is shared)."""
    if name in _SHARED:
        return _SHARED[name]
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise BestPeerError(
            f"unknown routing strategy {name!r}; known: {known}"
        ) from None
    return factory()
