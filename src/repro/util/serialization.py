"""Payload serialization.

Every simulated message travels as a struct-packed frame of the wire
codec (:mod:`repro.net.codec`), charged at the frame's size: small
control messages on the control plane, payload-carrying ones (answers,
fetch/active/data replies, client/server results, sourced agent
envelopes) on the length-prefixed data plane.  A payload no spec takes
raises :class:`~repro.errors.WireEncodeError` at the sender.

Pickle (:func:`serialize`, the Python analogue of the Java serialization
the prototype used) is left for an agent's plain-data state: the envelope
freezes it once where it is set, carries the bytes inside its frame, and
each execution unpickles its own copy (:mod:`repro.agents.envelope`), so
the codec never unpickles.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.util.tracing import Tracer

#: Protocol pinned for deterministic sizes across interpreter versions.
PICKLE_PROTOCOL = 4

#: Number of payload objects a :class:`WireEncoder` memoizes.
#: Fan-out sends (agent floods, CS broadcasts, Gnutella relays) reuse one
#: payload object within a handful of simulator events, so a small cache
#: captures nearly all repeats.  Set to 0 to disable this identity cache
#: (the determinism tests do); the codec's own memo stays on.
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


class WireEncoder:
    """Encode payloads once per object, not once per recipient.

    Encoding is memoized on *payload identity*: a fan-out loop that
    sends the same envelope object to N peers pays one encoding instead
    of N.  Each cache entry keeps a strong reference to its payload so an
    ``id()`` can never be reused while the entry is live; the ``is`` check
    on lookup makes a stale hit impossible.

    The cache assumes payloads are not mutated between sends — true for
    every protocol message in this library (frozen dataclasses, tuples,
    bytes).  Encoded bytes are deterministic, so a hit returns exactly
    what re-encoding would; wire sizes are bit-identical either way.
    A miss reaches the codec, which serves an *equal* message from its memo.
    """

    def __init__(self, tracer: "Tracer | None" = None):
        self.capacity = WIRE_CACHE_CAPACITY
        self.tracer = tracer
        self.hits = 0
        self.misses = 0
        #: payloads that took the control plane / the data plane
        self.compact_frames = 0
        self.data_frames = 0
        #: always 0: every payload is a frame.  Kept only because the perf
        #: ledger still reads it (perfledger/trace.py:346).
        self.pickle_payloads = 0
        #: charged bytes per plane (counted once per distinct encoding,
        #: i.e. on cache misses — the per-send totals live in Network)
        self.control_bytes = 0
        self.data_bytes = 0
        #: id(payload) -> (payload, frame)
        self._cache: OrderedDict[int, tuple[Any, bytes]] = OrderedDict()

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    def encode(self, payload: Any) -> bytes:
        """The frame of ``payload``, memoized per object identity;
        :class:`~repro.errors.WireEncodeError` when no spec takes it."""
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
        wire = _wire_codec()
        frame = wire.encode_message(payload)
        if frame[0] == wire.CONTROL.magic:
            self.compact_frames += 1
            self.control_bytes += len(frame)
            event = "encode-compact"
        else:
            self.data_frames += 1
            self.data_bytes += len(frame)
            event = "encode-stream"
        if tracer is not None:
            tracer.bump("net", event)
        if self.capacity > 0:
            self._cache[key] = (payload, frame)
            self._cache.move_to_end(key)
            while len(self._cache) > self.capacity:
                self._cache.popitem(last=False)
        return frame
