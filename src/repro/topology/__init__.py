"""Logical overlay topologies used by the paper's evaluation."""

from repro.topology.builders import (
    Topology,
    grid,
    line,
    random_graph,
    ring,
    star,
    tree,
)

__all__ = [
    "Topology",
    "star",
    "line",
    "tree",
    "ring",
    "random_graph",
    "grid",
]
