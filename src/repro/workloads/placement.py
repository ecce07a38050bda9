"""Answer placement: controlling who holds the matches.

The Gnutella comparison "restrict[s] the answers to come from only a few
nodes": the queried keyword must exist at a chosen subset of nodes and
nowhere else.  :class:`AnswerPlacement` picks that subset
deterministically and provides the special keyword plus per-node object
injection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import WorkloadError
from repro.util.randomness import derive_rng


@dataclass(frozen=True)
class AnswerPlacement:
    """A keyword held by exactly ``holder_count`` of ``node_count`` nodes."""

    node_count: int
    holder_count: int
    #: matching objects per holding node
    answers_per_holder: int = 5
    seed: int = 0
    holders: frozenset[int] = field(init=False)
    #: the base (querying) node never holds answers
    exclude = frozenset({0})
    keyword = "rare-target"

    def __post_init__(self) -> None:
        eligible = [i for i in range(self.node_count) if i not in self.exclude]
        if not 1 <= self.holder_count <= len(eligible):
            raise WorkloadError(
                f"cannot place answers at {self.holder_count} of "
                f"{len(eligible)} eligible nodes"
            )
        rng = derive_rng(self.seed, "placement", self.node_count, self.holder_count)
        chosen = frozenset(rng.sample(eligible, self.holder_count))
        object.__setattr__(self, "holders", chosen)

    def holds_answers(self, node_index: int) -> bool:
        return node_index in self.holders

    def objects_for(self, node_index: int, size: int = 1024) -> list[bytes]:
        """Payloads of the matching objects this node should store."""
        if not self.holds_answers(node_index):
            return []
        payloads = []
        for i in range(self.answers_per_holder):
            header = f"answer:{node_index}:{i}:".encode("ascii")
            payloads.append(header.ljust(size, b"\x2a"))
        return payloads

    @property
    def total_answers(self) -> int:
        """How many matches exist network-wide (the completion oracle)."""
        return self.holder_count * self.answers_per_holder
