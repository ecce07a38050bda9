"""Pluggable routing strategies: peer selection + query forwarding.

Importing this package registers every built-in strategy; construct one
by name with :func:`make_routing_strategy` or enumerate them with
:func:`registered_strategies`.  See ``docs/ROUTING.md``.
"""

from repro.core.routing.base import (
    PeerObservation,
    RoutingStrategy,
    make_routing_strategy,
    register_strategy,
    registered_strategies,
)
from repro.core.routing.classic import (
    MaxCountStrategy,
    MinHopsStrategy,
    RandomReplacementStrategy,
    StaticStrategy,
)
from repro.core.routing.costaware import CostAwareStrategy
from repro.core.routing.history import QueryHistoryStrategy
from repro.core.routing.superpeer import SuperPeerStrategy

__all__ = [
    "PeerObservation",
    "RoutingStrategy",
    "CostAwareStrategy",
    "MaxCountStrategy",
    "MinHopsStrategy",
    "QueryHistoryStrategy",
    "RandomReplacementStrategy",
    "StaticStrategy",
    "SuperPeerStrategy",
    "make_routing_strategy",
    "register_strategy",
    "registered_strategies",
]
