"""Overlay topology builders.

A :class:`Topology` is an undirected graph over node indices
``0..node_count-1`` with a designated *base* node (the query initiator;
the paper's experiments fix it per topology: the hub of the Star, the
root of the Tree, the left end of the Line).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import TopologyError
from repro.util.randomness import derive_rng


@dataclass(frozen=True)
class Topology:
    """An undirected overlay graph with a designated base node."""

    name: str
    node_count: int
    edges: frozenset[tuple[int, int]]
    base: int = 0
    _adjacency: dict[int, list[int]] = field(
        init=False, default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise TopologyError(f"need >= 1 node, got {self.node_count}")
        if not 0 <= self.base < self.node_count:
            raise TopologyError(f"base {self.base} outside 0..{self.node_count - 1}")
        for a, b in self.edges:
            if a == b:
                raise TopologyError(f"self-loop on node {a}")
            if not (0 <= a < self.node_count and 0 <= b < self.node_count):
                raise TopologyError(f"edge ({a}, {b}) outside the node range")
            if a > b:
                raise TopologyError(f"edge ({a}, {b}) not normalized (a < b)")
        adjacency: dict[int, list[int]] = {i: [] for i in range(self.node_count)}
        for a, b in sorted(self.edges):
            adjacency[a].append(b)
            adjacency[b].append(a)
        object.__setattr__(self, "_adjacency", adjacency)

    def neighbors(self, node: int) -> list[int]:
        """Direct neighbors of ``node``, ascending."""
        try:
            return list(self._adjacency[node])
        except KeyError:
            raise TopologyError(f"node {node} outside the topology") from None

    def degree(self, node: int) -> int:
        return len(self.neighbors(node))

    def is_connected(self) -> bool:
        """True when every node is reachable from the base."""
        return len(self.hops_from_base()) == self.node_count

    def hops_from_base(self) -> dict[int, int]:
        """BFS distance of every reachable node from the base."""
        distances = {self.base: 0}
        frontier = deque([self.base])
        while frontier:
            node = frontier.popleft()
            for neighbor in self.neighbors(node):
                if neighbor not in distances:
                    distances[neighbor] = distances[node] + 1
                    frontier.append(neighbor)
        return distances

def _normalize(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def star(node_count: int) -> Topology:
    """Every node connects directly to the base (node 0) — Figure 4(a)."""
    edges = frozenset(_normalize(0, i) for i in range(1, node_count))
    return Topology("star", node_count, edges, base=0)


def line(node_count: int) -> Topology:
    """A chain; the base is the left-most node — Figure 4(c)."""
    edges = frozenset(_normalize(i, i + 1) for i in range(node_count - 1))
    return Topology("line", node_count, edges, base=0)


def tree(node_count: int, branching: int = 2) -> Topology:
    """A complete ``branching``-ary tree filled level by level — Figure 4(b).

    The base is the root.  Node ``i``'s parent is ``(i - 1) // branching``.
    """
    if branching < 1:
        raise TopologyError(f"branching must be >= 1, got {branching}")
    edges = frozenset(
        _normalize((i - 1) // branching, i) for i in range(1, node_count)
    )
    return Topology("tree", node_count, edges, base=0)


def ring(node_count: int) -> Topology:
    """A cycle (line plus the wrap-around edge)."""
    if node_count < 3:
        raise TopologyError(f"a ring needs >= 3 nodes, got {node_count}")
    edges = {_normalize(i, (i + 1) % node_count) for i in range(node_count)}
    return Topology("ring", node_count, frozenset(edges), base=0)


def grid(rows: int, cols: int) -> Topology:
    """A rows x cols mesh; the base is the top-left corner."""
    if rows < 1 or cols < 1:
        raise TopologyError(f"grid needs positive dims, got {rows}x{cols}")
    edges = set()
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.add(_normalize(node, node + 1))
            if r + 1 < rows:
                edges.add(_normalize(node, node + cols))
    return Topology("grid", rows * cols, frozenset(edges), base=0)


def random_graph(node_count: int, degree: int, seed: int = 0) -> Topology:
    """A connected random graph with average degree about ``degree``.

    Construction: a random spanning tree (guaranteeing connectivity)
    plus random extra edges until the edge budget ``node_count * degree
    / 2`` is met.  Used for the Gnutella-comparison overlays.
    """
    if node_count < 2:
        raise TopologyError(f"need >= 2 nodes, got {node_count}")
    if degree < 1:
        raise TopologyError(f"degree must be >= 1, got {degree}")
    rng = derive_rng(seed, "random_graph", node_count, degree)
    order = list(range(node_count))
    rng.shuffle(order)
    edges: set[tuple[int, int]] = set()
    for position in range(1, node_count):
        parent = order[rng.randrange(position)]
        edges.add(_normalize(parent, order[position]))
    target = min(
        node_count * degree // 2, node_count * (node_count - 1) // 2
    )
    attempts = 0
    while len(edges) < target and attempts < 50 * target:
        a, b = rng.sample(range(node_count), 2)
        edges.add(_normalize(a, b))
        attempts += 1
    return Topology("random", node_count, frozenset(edges), base=0)
