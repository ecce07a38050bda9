"""Object corpus generation.

The paper's setup: "each node stores 1000 objects in StorM to be shared
... we have set all objects to be of the same size - 1K bytes.
Moreover, there is no replication, i.e., there is only one copy of an
object in the BestPeer network."

:func:`generate_objects` produces per-node object specs obeying both
properties: fixed size and globally unique payloads, with keyword tags
drawn from a shared :class:`KeywordCorpus`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.util.randomness import derive_rng


@dataclass(frozen=True, slots=True)
class ObjectSpec:
    """One object to load into a node's StorM store."""

    keywords: tuple[str, ...]
    payload: bytes


class KeywordCorpus:
    """A fixed vocabulary of synthetic keywords.

    ``keyword(i)`` is deterministic, so experiments can name "the
    keyword held by every node" (topology experiments) or "the keyword
    held by exactly three nodes" (the Gnutella comparison) without
    communicating strings around.
    """

    def __init__(self, size: int = 100):
        if size < 1:
            raise WorkloadError(f"corpus size must be >= 1, got {size}")
        self.size = size

    def keyword(self, index: int) -> str:
        """The ``index``-th keyword (wraps modulo the corpus size)."""
        return f"kw{index % self.size:04d}"

    def keywords(self) -> list[str]:
        return [self.keyword(i) for i in range(self.size)]


def generate_objects(
    node_index: int,
    count: int = 1000,
    size: int = 1024,
    corpus: KeywordCorpus | None = None,
    seed: int = 0,
) -> list[ObjectSpec]:
    """Generate one node's object load.

    Payloads embed the node index and object number, so every object in
    the network is unique (the paper's no-replication property), padded
    to exactly ``size`` bytes.  Keywords cycle through the corpus so
    every keyword appears ``count / corpus.size`` times per node.
    """
    if count < 0:
        raise WorkloadError(f"count must be >= 0, got {count}")
    if size < 1:
        raise WorkloadError(f"object size must be >= 1, got {size}")
    corpus = corpus if corpus is not None else KeywordCorpus()
    rng = derive_rng(seed, "objects", node_index)
    specs = []
    for i in range(count):
        header = f"object:{node_index}:{i}:".encode("ascii")
        filler_len = size - len(header)
        if filler_len < 0:
            raise WorkloadError(f"object size {size} too small for the header")
        payload = header + rng.randbytes(filler_len)
        specs.append(ObjectSpec((corpus.keyword(i),), payload))
    return specs
