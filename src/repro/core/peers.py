"""The direct-peer table.

Holds at most ``max_peers`` (the node's ``k``) entries, each mapping a
peer's permanent BPID to its last known IP address plus the statistics
the reconfiguration strategies feed on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PeerTableError
from repro.ids import BPID
from repro.net.address import IPAddress


@dataclass
class PeerInfo:
    """One direct peer, as this node knows it."""

    bpid: BPID
    address: IPAddress
    added_at: float = 0.0
    #: answers in the most recently finished query
    last_answers: int = 0
    #: hops distance piggybacked with the most recent answers
    last_hops: int | None = None
    #: lifetime answer total across queries
    total_answers: int = 0
    #: consecutive request timeouts charged against this peer
    timeouts: int = 0
    #: suspected dead (timeouts crossed the threshold); floods skip it
    suspect: bool = False
    #: sim time of the last message received from this peer
    last_seen: float = 0.0


@dataclass
class PeerTable:
    """Bounded mapping of direct peers."""

    max_peers: int
    _entries: dict[BPID, PeerInfo] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_peers < 1:
            raise PeerTableError(f"max_peers must be >= 1, got {self.max_peers}")

    def add(self, bpid: BPID, address: IPAddress, now: float = 0.0) -> None:
        """Add a direct peer; errors when full or duplicate."""
        if bpid in self._entries:
            raise PeerTableError(f"{bpid} is already a direct peer")
        if len(self._entries) >= self.max_peers:
            raise PeerTableError(
                f"peer table is full ({self.max_peers}); reconfigure instead"
            )
        self._entries[bpid] = PeerInfo(bpid=bpid, address=address, added_at=now)

    def remove(self, bpid: BPID) -> None:
        """Drop a direct peer."""
        if bpid not in self._entries:
            raise PeerTableError(f"{bpid} is not a direct peer")
        del self._entries[bpid]

    def replace_all(self, peers: list[PeerInfo]) -> None:
        """Install a whole new peer set (the reconfiguration commit)."""
        if len(peers) > self.max_peers:
            raise PeerTableError(
                f"{len(peers)} peers exceed the table capacity {self.max_peers}"
            )
        bpids = [peer.bpid for peer in peers]
        if len(set(bpids)) != len(bpids):
            raise PeerTableError("duplicate BPIDs in replacement peer set")
        self._entries = {peer.bpid: peer for peer in peers}

    def update_address(self, bpid: BPID, address: IPAddress) -> None:
        """Record a peer's new IP (learned from LIGLO or an answer)."""
        entry = self._entries.get(bpid)
        if entry is None:
            raise PeerTableError(f"{bpid} is not a direct peer")
        entry.address = address

    # -- liveness ----------------------------------------------------------------

    def note_timeout(self, bpid: BPID, threshold: int) -> bool:
        """Charge one request timeout against ``bpid``.

        Returns True exactly when this timeout pushes the peer over
        ``threshold`` consecutive timeouts, i.e. the peer *became*
        suspect now.  Unknown BPIDs are ignored (the peer may have been
        evicted while the request was in flight).
        """
        entry = self._entries.get(bpid)
        if entry is None:
            return False
        entry.timeouts += 1
        if not entry.suspect and entry.timeouts >= threshold:
            entry.suspect = True
            return True
        return False

    def note_alive(self, bpid: BPID, now: float) -> None:
        """Any message from ``bpid`` clears suspicion and the timeout run."""
        entry = self._entries.get(bpid)
        if entry is None:
            return
        entry.timeouts = 0
        entry.suspect = False
        entry.last_seen = now

    def suspect_bpids(self) -> list[BPID]:
        """BPIDs currently suspected dead."""
        return [bpid for bpid, entry in self._entries.items() if entry.suspect]

    def live_entries(self) -> list[PeerInfo]:
        """Peers not suspected dead, in insertion order."""
        return [entry for entry in self._entries.values() if not entry.suspect]

    # -- queries -----------------------------------------------------------------

    def __contains__(self, bpid: BPID) -> bool:
        return bpid in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, bpid: BPID) -> PeerInfo | None:
        return self._entries.get(bpid)

    def entries(self) -> list[PeerInfo]:
        """All peers, in insertion order."""
        return list(self._entries.values())

    def bpids(self) -> list[BPID]:
        return list(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.max_peers
