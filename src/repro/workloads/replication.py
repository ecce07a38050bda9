"""Replication-aware data placement.

The paper's evaluation deliberately ran with "no replication, i.e.,
there is only one copy of an object in the BestPeer network", and its
future work asks "how placement of data and replication can be exploited
to improve performance".  This module supplies the workload for that
study: a set of distinct objects, each stored at ``factor`` randomly
chosen nodes, so experiments can sweep the replication factor and watch
the time-to-first-answer fall as replicas land nearer the querier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import WorkloadError
from repro.util.randomness import derive_rng


@dataclass(frozen=True)
class ReplicationSpec:
    """``distinct_objects`` objects, each replicated at ``factor`` nodes."""

    node_count: int
    #: copies of every object ("1" reproduces the paper's no-replication)
    factor: int
    distinct_objects: int = 10
    object_size: int = 1024
    seed: int = 0
    #: node index -> payloads stored there (derived)
    placements: dict[int, list[bytes]] = field(init=False)
    keyword = "replicated"
    #: nodes that never hold copies (the querying base)
    exclude = frozenset({0})

    def __post_init__(self) -> None:
        eligible = [i for i in range(self.node_count) if i not in self.exclude]
        if not 1 <= self.factor <= len(eligible):
            raise WorkloadError(
                f"replication factor {self.factor} impossible with "
                f"{len(eligible)} eligible nodes"
            )
        if self.distinct_objects < 1:
            raise WorkloadError("need at least one distinct object")
        rng = derive_rng(self.seed, "replication", self.node_count, self.factor)
        placements: dict[int, list[bytes]] = {i: [] for i in eligible}
        for number in range(self.distinct_objects):
            header = f"replica:{number}:".encode("ascii")
            payload = header.ljust(self.object_size, b"\x2b")
            for holder in rng.sample(eligible, self.factor):
                placements[holder].append(payload)
        object.__setattr__(
            self, "placements", {i: p for i, p in placements.items() if p}
        )

    def objects_for(self, node_index: int, size: int | None = None) -> list[bytes]:
        """Payloads node ``node_index`` stores (may be empty).

        ``size`` is accepted for interface compatibility with
        :class:`~repro.workloads.placement.AnswerPlacement` but ignored:
        replica sizes are fixed by the spec's ``object_size``.
        """
        return list(self.placements.get(node_index, []))

    @property
    def holders(self) -> frozenset[int]:
        """Nodes holding at least one replica."""
        return frozenset(self.placements)