"""Shared utilities: serialization, RNG, retry policies, tracing."""

from repro.util.randomness import derive_rng
from repro.util.serialization import deserialize, serialize
from repro.util.tracing import TraceEvent, Tracer

__all__ = [
    "derive_rng",
    "serialize",
    "deserialize",
    "TraceEvent",
    "Tracer",
]
