"""Replication policy: how many copies, and when hotness adds more.

BestPeer as the paper describes it serves every shared object from
exactly one node, so a crashed owner silently removes its objects from
every answer set.  The :class:`ReplicationPolicy` turns that into a
tunable: ``rf`` total copies of every shared object (owner included)
are materialized at placement time, and objects whose per-record
query-hit EWMA crosses ``repro.replication.manager.HOT_THRESHOLD`` are
promoted to ``hot_rf`` copies — the skew-chasing behaviour every
production P2P system ends up with (cf. the ``ard1102__p2p`` replication
coordinator the ROADMAP points at).

``rf=1`` (the default) keeps the paper's single-copy behaviour
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReplicationError

@dataclass(frozen=True)
class ReplicationPolicy:
    """Immutable per-node replication knobs.

    The owner drives everything: it picks holders, ships copies, and
    invalidates them on reshare/delete.  Holders are passive (they
    accept offers, answer queries from their replica store, and repair
    lazily when told a copy went stale).
    """

    #: total copies of every shared object, the owner's included.
    #: 1 reproduces the paper's single-copy behaviour exactly.
    rf: int = 1
    #: copies a *hot* object is promoted to (None: hotness never
    #: triggers extra placement; must be >= rf otherwise).  An object is
    #: hot once its query-hit EWMA crosses
    #: ``repro.replication.manager.HOT_THRESHOLD``: on the second
    #: consecutive hitting query.
    hot_rf: int | None = None
    #: query-path result cache entries at the initiator (0 disables);
    #: entries are invalidated by ReplicaInvalidate and local reshares
    cache_capacity: int = 0

    def __post_init__(self) -> None:
        if self.rf < 1:
            raise ReplicationError(f"rf must be >= 1, got {self.rf}")
        if self.hot_rf is not None and self.hot_rf < self.rf:
            raise ReplicationError(
                f"hot_rf must be >= rf ({self.rf}), got {self.hot_rf}"
            )
        if self.cache_capacity < 0:
            raise ReplicationError(
                f"cache_capacity must be >= 0, got {self.cache_capacity}"
            )

    @property
    def replicates(self) -> bool:
        """True when this policy ever places replicas (rf or hotness)."""
        return self.rf > 1 or (self.hot_rf is not None and self.hot_rf > 1)

    @property
    def caches(self) -> bool:
        """True when the query-path result cache is enabled."""
        return self.cache_capacity > 0

    @property
    def active(self) -> bool:
        """True when any replication feature is on."""
        return self.replicates or self.caches
