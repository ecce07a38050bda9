"""Shared utilities: serialization, RNG, statistics, tracing."""

from repro.util.randomness import SeedSequence, derive_rng
from repro.util.serialization import deserialize, serialize
from repro.util.stats import RunningStats, mean, percentile
from repro.util.tracing import TraceEvent, Tracer

__all__ = [
    "SeedSequence",
    "derive_rng",
    "serialize",
    "deserialize",
    "RunningStats",
    "mean",
    "percentile",
    "TraceEvent",
    "Tracer",
]
