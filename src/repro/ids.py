"""Identifier types used across the BestPeer network.

The paper identifies a node by its *BestPeer ID* (BPID), a pair
``(LIGLOID, NodeID)`` where ``LIGLOID`` names the LIGLO server that issued
the id and ``NodeID`` is unique within that server.  Because ids are
compared, hashed, and shipped inside agents constantly, they are small
frozen dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class BPID:
    """BestPeer global identity: unique per node, stable across IP changes.

    ``liglo_id`` is the identity (in the paper: the fixed IP address) of
    the issuing LIGLO server and ``node_id`` is the serial number that
    server assigned.  Two nodes registered at *different* LIGLO servers may
    share a ``node_id``; the pair is what is globally unique.
    """

    liglo_id: str
    node_id: int

    def __str__(self) -> str:
        return f"{self.liglo_id}/{self.node_id}"


@dataclass(frozen=True, slots=True)
class AgentId:
    """Globally unique identity of one logical agent dispatch.

    All clones of a flooded agent share the same ``AgentId``; hosts use it
    to drop duplicate arrivals ("drop any incoming agent that already has a
    copy on the site").
    """

    origin: BPID
    serial: int

    def __hash__(self) -> int:
        # Every flood arrival is looked up in a dedup set: hash the three
        # leaves in one tuple instead of nesting BPID's generated hash.
        origin = self.origin
        return hash((origin.liglo_id, origin.node_id, self.serial))

    def __str__(self) -> str:
        return f"agent:{self.origin}#{self.serial}"


@dataclass(frozen=True, slots=True)
class QueryId:
    """Identity of one query issued by a node (one per user request)."""

    origin: BPID
    serial: int

    def __str__(self) -> str:
        return f"query:{self.origin}#{self.serial}"
