"""Wire-level packet representation: a tagged wire frame or pickle,
decoded lazily on first access."""

from __future__ import annotations

from typing import Any

from repro.errors import WireDecodeError
from repro.net.address import IPAddress
from repro.net.codec import CODEC_FRAME, CODEC_PICKLE, decode_message
from repro.util.serialization import deserialize

#: Fixed per-packet protocol overhead (headers, framing), in bytes.
PACKET_OVERHEAD_BYTES = 80

#: Sentinel marking a packet whose payload has not been decoded yet.
_UNDECODED = object()


class Packet:
    """One message travelling the simulated network.

    ``raw`` is the transport payload captured at send time — a wire frame
    of either plane or an (uncompressed) pickle, as tagged by ``codec``
    (the tag, never the first byte, picks the decoder, so a frame with a
    corrupted magic byte is a decode error, not a pickle);
    ``wire_size`` is the number of bytes the encoded form (plus framing
    overhead) occupied on the wire — the quantity the transmission-cost
    model charges for.  Decoding never decompresses: compression only
    ever informs ``wire_size``, so lazy decode is ordering-independent
    of the compression bypass.

    ``payload`` decodes ``raw`` lazily, on first access, so a receiver
    sees what was sent, snapshotted at send time, and never an object
    another host can change (hosts are separate machines; observable
    aliasing would be a lie).  Receivers of byte-identical frames of
    either plane share one decoded message (a custom-body batch of
    answers excepted), which is deeply immutable by registration
    (:func:`repro.net.codec.decode_message`); an agent's state inside it
    is frozen bytes that each execution thaws for itself.  Packets that
    are dropped en route — loss, no route, stale address — never pay
    the decode at all.  A malformed frame raises a typed
    :class:`~repro.errors.WireDecodeError` from that first access;
    :meth:`Host._dispatch` turns it into a counted drop.

    A plain slotted class, built positionally with plain assignments:
    one is made per packet sent, so it costs no dataclass machinery.
    Packets compare and hash by identity; nothing keys on one.
    """

    __slots__ = (
        "src", "dst", "protocol", "wire_size", "sent_at", "raw", "codec", "_decoded",
    )

    def __init__(
        self,
        src: IPAddress,
        dst: IPAddress,
        protocol: str,
        wire_size: int,
        sent_at: float,
        raw: bytes,
        codec: str = CODEC_PICKLE,
        _decoded: Any = _UNDECODED,
    ):
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.wire_size = wire_size
        self.sent_at = sent_at
        self.raw = raw
        self.codec = codec
        self._decoded = _decoded

    @property
    def payload(self) -> Any:
        """The decoded application object (decoded on first access)."""
        if self._decoded is _UNDECODED:
            if self.codec == CODEC_FRAME:
                decoded = decode_message(self.raw)
            elif self.codec == CODEC_PICKLE:
                try:
                    decoded = deserialize(self.raw)
                except WireDecodeError:
                    raise
                except Exception as exc:
                    # A corrupt pickle raises whatever pickle feels like;
                    # the delivery loop only counts *typed* decode errors.
                    raise WireDecodeError(f"corrupt pickle payload: {exc}") from exc
            else:
                raise WireDecodeError(f"unknown packet codec tag {self.codec!r}")
            self._decoded = decoded
        return self._decoded

    def __getstate__(self) -> tuple[None, dict[str, Any]]:
        # The decode cache never travels: the sentinel would unpickle as
        # a fresh object() and masquerade as a decoded payload.  A packet
        # crossing a process boundary (the parallel experiment runner)
        # carries only the wire frame and re-decodes on first access.
        return (None, {
            "src": self.src,
            "dst": self.dst,
            "protocol": self.protocol,
            "wire_size": self.wire_size,
            "sent_at": self.sent_at,
            "raw": self.raw,
            "codec": self.codec,
            "_decoded": _UNDECODED,
        })

    def __setstate__(self, state: tuple[None, dict[str, Any]]) -> None:
        for name, value in state[1].items():
            if name == "_decoded":
                value = _UNDECODED
            setattr(self, name, value)

    def __str__(self) -> str:
        return (
            f"Packet({self.src} -> {self.dst} proto={self.protocol} "
            f"{self.wire_size}B sent@{self.sent_at:.6f})"
        )
