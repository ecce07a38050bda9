"""Wire-level packet representation: a wire frame, decoded lazily on
first access."""

from __future__ import annotations

from typing import Any

from repro.net.address import IPAddress
from repro.net.codec import decode_message

#: Fixed per-packet protocol overhead (headers, framing), in bytes.
PACKET_OVERHEAD_BYTES = 80

#: Sentinel marking a packet whose payload has not been decoded yet.
_UNDECODED = object()


class Packet:
    """One message travelling the simulated network.

    ``raw`` is the wire frame (of either plane) captured at send time;
    ``wire_size`` is its length plus framing overhead — the quantity the
    transmission-cost model charges for.

    ``payload`` decodes ``raw`` lazily, on first access, so a receiver
    sees what was sent, snapshotted at send time, and never an object
    another host can change (hosts are separate machines; observable
    aliasing would be a lie).  Receivers of byte-identical frames of
    either plane share one decoded message, which is deeply immutable by
    registration (:func:`repro.net.codec.decode_message`); an agent's
    state inside it is frozen bytes that each execution thaws for
    itself.  Packets that are dropped en route — loss, no route, stale
    address — never pay the decode at all.  A malformed frame raises a typed
    :class:`~repro.errors.WireDecodeError` from that first access;
    :meth:`Host._dispatch` turns it into a counted drop.

    A plain slotted class, built positionally with plain assignments:
    one is made per packet sent, so it costs no dataclass machinery.
    Packets compare and hash by identity; nothing keys on one.
    """

    __slots__ = (
        "src", "dst", "protocol", "wire_size", "sent_at", "raw", "_decoded",
    )

    def __init__(
        self,
        src: IPAddress,
        dst: IPAddress,
        protocol: str,
        wire_size: int,
        sent_at: float,
        raw: bytes,
    ):
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.wire_size = wire_size
        self.sent_at = sent_at
        self.raw = raw
        self._decoded = _UNDECODED

    @property
    def payload(self) -> Any:
        """The decoded application object (decoded on first access)."""
        if self._decoded is _UNDECODED:
            self._decoded = decode_message(self.raw)
        return self._decoded

    def __str__(self) -> str:
        return (
            f"Packet({self.src} -> {self.dst} proto={self.protocol} "
            f"{self.wire_size}B sent@{self.sent_at:.6f})"
        )
