"""Payload serialization.

Agents, answers, and control messages are serialized with :mod:`pickle`
(the Python analogue of the Java serialization the prototype used) so that
the *real* byte size of each message feeds the simulated transmission-cost
model.  The simulation is single-process and the payloads are produced by
this library itself, so pickle's trust model is acceptable here; shipping
of agent *code* goes through the explicit source-shipping path in
:mod:`repro.agents.codeship` instead of pickled classes.

Registered messages skip pickle+gzip entirely and travel as
struct-packed frames of the wire codec (:mod:`repro.net.codec`), charged
at the frame's size: small control messages on the control plane,
payload-carrying ones (answers, fetch/active/data replies, sourced agent
envelopes) on the length-prefixed data plane.  An agent's plain-data
state is the one pickle inside such a frame: the envelope freezes it
with :func:`serialize` once where it is set, carries the bytes, and each
execution unpickles its own copy (:mod:`repro.agents.envelope`), so the
codec never unpickles.  Per-plane counters (`control`/`data`/`fallback`)
record where the bytes actually go.

The pickle fallback (today only the client/server baselines'
``CsResults``) ships the uncompressed pickle and charges
``codec.compressed_size`` of it.  :class:`WireEncoder` memoises per
payload *object*; the gzip codec memoises per pickle *content*, so a
relay that re-sends equal results as a fresh object is priced without
compressing them again.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.util.compression import Codec
    from repro.util.tracing import Tracer

#: Protocol pinned for deterministic sizes across interpreter versions.
PICKLE_PROTOCOL = 4

#: Number of payload objects a :class:`WireEncoder` memoizes.
#: Fan-out sends (agent floods, CS broadcasts, Gnutella relays) reuse one
#: payload object within a handful of simulator events, so a small cache
#: captures nearly all repeats.  Set to 0 to disable encoding caches
#: globally (the determinism regression tests do exactly that).
WIRE_CACHE_CAPACITY = 128

#: Lazily bound :mod:`repro.net.codec` (imported on first encode to keep
#: ``repro.util`` importable before ``repro.net`` finishes initialising).
_wire_codec_module = None


def _wire_codec():
    global _wire_codec_module
    if _wire_codec_module is None:
        from repro.net import codec

        _wire_codec_module = codec
    return _wire_codec_module


def serialize(obj: Any) -> bytes:
    """Serialize ``obj`` to bytes."""
    return pickle.dumps(obj, protocol=PICKLE_PROTOCOL)


def deserialize(data: bytes) -> Any:
    """Inverse of :func:`serialize`."""
    return pickle.loads(data)


def serialized_size(obj: Any) -> int:
    """Size in bytes of ``obj``'s serialized form (uncompressed)."""
    return len(serialize(obj))


class EncodedPayload:
    """One payload's wire form: transport bytes plus charged size.

    ``raw`` is what the receiver decodes — a wire frame for a registered
    message, an uncompressed pickle otherwise; ``codec`` tags
    which (it travels into :class:`~repro.net.message.Packet` so lazy
    decode picks the right inverse).  ``compressed_size`` is what the
    transmission model charges (framing overhead excluded): the frame
    length for registered messages, the gzip size of the pickle for
    everything else.
    """

    __slots__ = ("raw", "compressed_size", "codec")

    def __init__(self, raw: bytes, compressed_size: int, codec: str = "pickle"):
        self.raw = raw
        self.compressed_size = compressed_size
        self.codec = codec


class WireEncoder:
    """Serialize+compress payloads once per object, not once per recipient.

    Encoding is memoized on *payload identity*: a fan-out loop that
    sends the same envelope object to N peers pays one encoding instead
    of N.  Each cache entry keeps a strong reference to its payload so an
    ``id()`` can never be reused while the entry is live; the ``is`` check
    on lookup makes a stale hit impossible.

    The cache assumes payloads are not mutated between sends — true for
    every protocol message in this library (frozen dataclasses, tuples,
    bytes).  Encoded bytes are deterministic, so a hit returns exactly
    what re-encoding would; wire sizes are bit-identical either way.
    """

    def __init__(self, codec: "Codec", tracer: "Tracer | None" = None):
        self.codec = codec
        self.capacity = WIRE_CACHE_CAPACITY
        self.tracer = tracer
        self.hits = 0
        self.misses = 0
        #: payloads that took the control plane / the data plane / the
        #: pickle(+gzip) fallback
        self.compact_frames = 0
        self.data_frames = 0
        self.pickle_payloads = 0
        #: charged bytes per plane (counted once per distinct encoding,
        #: i.e. on cache misses — the per-send totals live in Network)
        self.control_bytes = 0
        self.data_bytes = 0
        self.fallback_bytes = 0
        #: id(payload) -> (payload, encoded)
        self._cache: OrderedDict[int, tuple[Any, EncodedPayload]] = OrderedDict()

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    def encode(self, payload: Any) -> EncodedPayload:
        """Wire form of ``payload``, memoized per object identity."""
        key = id(payload)
        entry = self._cache.get(key)
        tracer = self.tracer
        if entry is not None and entry[0] is payload:
            self.hits += 1
            self._cache.move_to_end(key)
            if tracer is not None and tracer.enabled:  # per packet: skip a dead bump
                tracer.bump("net", "encode-hit")
            return entry[1]
        self.misses += 1
        if tracer is not None:
            tracer.bump("net", "encode-miss")
        encoded = self._encode(payload)
        if self.capacity > 0:
            self._cache[key] = (payload, encoded)
            self._cache.move_to_end(key)
            while len(self._cache) > self.capacity:
                self._cache.popitem(last=False)
        return encoded

    def _encode(self, payload: Any) -> EncodedPayload:
        wire = _wire_codec()
        frame = wire.try_encode(payload)
        if frame is not None:
            if frame[0] == wire.CONTROL.magic:
                self.compact_frames += 1
                self.control_bytes += len(frame)
                event = "encode-compact"
            else:
                self.data_frames += 1
                self.data_bytes += len(frame)
                event = "encode-stream"
            if self.tracer is not None:
                self.tracer.bump("net", event)
            return EncodedPayload(frame, len(frame), wire.CODEC_FRAME)
        self.pickle_payloads += 1
        raw = serialize(payload)
        encoded = EncodedPayload(raw, self.codec.compressed_size(raw), wire.CODEC_PICKLE)
        self.fallback_bytes += encoded.compressed_size
        return encoded

    def clear(self) -> None:
        """Drop all cached encodings (counters are kept)."""
        self._cache.clear()
