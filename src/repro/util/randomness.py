"""Deterministic randomness helpers.

All stochastic choices in the library (tie breaking, workload generation,
churn) flow through ``random.Random`` instances derived from a single
experiment seed, so a run is reproducible bit-for-bit from its seed.
"""

from __future__ import annotations

import hashlib
import random


def derive_rng(seed: int, *scope: object) -> random.Random:
    """Return an RNG deterministically derived from ``seed`` and a scope.

    Two calls with the same ``(seed, scope)`` return streams with identical
    output; different scopes give independent-looking streams.  Scope parts
    are stringified, so any hashable-ish labels work::

        rng = derive_rng(42, "workload", node_index)
    """
    material = ":".join([str(seed)] + [str(part) for part in scope])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))

