"""Compact control-message wire codec.

The flood's wall-clock is dominated by pickle+gzip on *small* control
messages (LIGLO registration and validity checks, Gnutella descriptors,
fetch/data tokens, state-only agent-envelope hops).  This module gives
each such message a versioned, struct-packed binary frame::

    u8 magic (0xB7) | u8 version | u16 type id | field-by-field body

Messages opt in by registering a :class:`MessageSpec` (an ordered list
of ``(field name, field codec)`` pairs) in the module that defines them;
anything unregistered — or carrying values that do not fit the fixed
layout — falls back to the pickle+gzip path transparently.  A registered
message is deeply immutable (a frozen dataclass whose field codecs yield
nothing a receiver could change) and :func:`register` refuses anything
else, because every receiver of one frame shares one decoded message.

The transmission-cost model charges the real encoded size of the compact
frame for every registered message.  The conformance battery in
``tests/net`` pins the layout with golden frame vectors, property tests,
and a malformed-frame fault injector.

Decoding is strict: bad magic, unsupported version, unknown type id,
truncation, value overruns, oversized frames and trailing garbage all
raise a typed :class:`~repro.errors.WireDecodeError` — never an
arbitrary exception — so delivery loops can drop-and-count corrupt
frames without crashing.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import WireCodecError, WireDecodeError, WireEncodeError

#: Bump on ANY layout change (field added/removed/reordered/retyped, type
#: id reassigned).  The decoder rejects every other version, and the
#: golden vectors in ``tests/net/vectors/`` must be regenerated.
WIRE_FORMAT_VERSION = 1

#: First byte of every compact frame.  Chosen to collide with neither a
#: gzip stream (0x1f) nor a protocol-4 pickle (0x80) so transports can
#: tell the formats apart from the leading byte alone.
FRAME_MAGIC = 0xB7

_HEADER = struct.Struct(">BBH")
#: magic + version + type id
HEADER_SIZE = _HEADER.size

#: Control frames are small by definition; anything bigger is corrupt.
MAX_FRAME_BYTES = 1 << 20

#: Distinct parsed frames each :class:`MessageSpec` remembers; a full memo
#: is cleared, not aged (a flood re-parses its handful of live frames).
#: Small on purpose: a flood's wavefront holds a few distinct frames, and a
#: parse that outlives a few hundred allocations is promoted to the cyclic
#: collector's oldest generation, where a build's one-shot LIGLO frames
#: bring full collections forward (at 128, ``flood_4k`` set-up read +12 %).
DECODE_MEMO_CAPACITY = 32
#: :func:`decode_message` calls served from a memo / parsed from the
#: frame.  Plain ints for tests and reports; unsynchronised, so exact only
#: when one thread decodes (the simulator).
decode_memo_hits = 0
decode_memo_misses = 0
_MEMO_LOCK = threading.Lock()

#: Packet/EncodedPayload codec tags: a compact frame, or the pickle that
#: unregistered payloads still travel as.
CODEC_COMPACT = "compact"
CODEC_PICKLE = "pickle"


def _take(data: bytes, offset: int, count: int) -> tuple[bytes, int]:
    """Bounds-checked slice: the next ``count`` body bytes."""
    end = offset + count
    if end > len(data):
        raise WireDecodeError(
            f"frame truncated: need {count} bytes at offset {offset}, "
            f"have {len(data) - offset}"
        )
    return data[offset:end], end


def _is_frozen_dataclass(cls: Any) -> bool:
    """True for a ``@dataclass(frozen=True)`` class: nothing can assign to
    an instance."""
    return getattr(getattr(cls, "__dataclass_params__", None), "frozen", False)


# ---------------------------------------------------------------------------
# Field codecs
# ---------------------------------------------------------------------------


class FieldCodec:
    """Packs/unpacks one message field.  Encode-side value problems raise
    :class:`WireEncodeError` (the caller falls back to pickle); decode-side
    problems raise :class:`WireDecodeError` (the frame is corrupt)."""

    name = "field"
    #: Can :meth:`unpack` return a value a receiver could mutate?  Every
    #: receiver of one frame shares one decoded message
    #: (:func:`decode_message`), so :func:`register` refuses such a field;
    #: the safe default is True, the immutable leaves say False and the
    #: combinators ask their inners.
    yields_mutable = True

    def pack(self, value: Any, out: bytearray) -> None:
        raise NotImplementedError

    def unpack(self, data: bytes, offset: int) -> tuple[Any, int]:
        raise NotImplementedError


class _Scalar(FieldCodec):
    """A fixed-width integer/float via one :mod:`struct` format."""

    yields_mutable = False

    def __init__(self, fmt: str, name: str):
        self._struct = struct.Struct(fmt)
        self.name = name

    def pack(self, value: Any, out: bytearray) -> None:
        try:
            out += self._struct.pack(value)
        except (struct.error, TypeError) as exc:
            raise WireEncodeError(f"{value!r} does not fit {self.name}: {exc}") from exc

    def unpack(self, data: bytes, offset: int) -> tuple[Any, int]:
        chunk, offset = _take(data, offset, self._struct.size)
        return self._struct.unpack(chunk)[0], offset


class _Bool(FieldCodec):
    """One byte, strictly 0 or 1 (anything else marks a corrupt frame)."""

    name = "bool"
    yields_mutable = False

    def pack(self, value: Any, out: bytearray) -> None:
        if not isinstance(value, bool):
            raise WireEncodeError(f"{value!r} is not a bool")
        out.append(1 if value else 0)

    def unpack(self, data: bytes, offset: int) -> tuple[Any, int]:
        chunk, offset = _take(data, offset, 1)
        if chunk[0] not in (0, 1):
            raise WireDecodeError(f"bool byte must be 0 or 1, got {chunk[0]}")
        return chunk[0] == 1, offset


class _Str(FieldCodec):
    """UTF-8 string, u16 length prefix (control strings are short)."""

    name = "str"
    yields_mutable = False

    def pack(self, value: Any, out: bytearray) -> None:
        if not isinstance(value, str):
            raise WireEncodeError(f"{value!r} is not a str")
        encoded = value.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise WireEncodeError(f"string of {len(encoded)} bytes exceeds u16 length")
        out += U16._struct.pack(len(encoded))  # type: ignore[attr-defined]
        out += encoded

    def unpack(self, data: bytes, offset: int) -> tuple[Any, int]:
        length, offset = U16.unpack(data, offset)
        chunk, offset = _take(data, offset, length)
        try:
            return str(chunk, "utf-8"), offset  # any buffer, not only bytes
        except UnicodeDecodeError as exc:
            raise WireDecodeError(f"invalid utf-8 in string field: {exc}") from exc


class _Bytes(FieldCodec):
    """Raw byte string, u32 length prefix."""

    name = "bytes"
    yields_mutable = False

    def pack(self, value: Any, out: bytearray) -> None:
        if not isinstance(value, (bytes, bytearray)):
            raise WireEncodeError(f"{value!r} is not bytes")
        out += U32._struct.pack(len(value))  # type: ignore[attr-defined]
        out += value

    def unpack(self, data: bytes, offset: int) -> tuple[Any, int]:
        length, offset = U32.unpack(data, offset)
        chunk, offset = _take(data, offset, length)
        return bytes(chunk), offset


class _Optional(FieldCodec):
    """Presence byte (strictly 0/1) followed by the inner field."""

    def __init__(self, inner: FieldCodec):
        self.inner = inner
        self.name = f"opt({inner.name})"
        self.yields_mutable = inner.yields_mutable

    def pack(self, value: Any, out: bytearray) -> None:
        if value is None:
            out.append(0)
            return
        out.append(1)
        self.inner.pack(value, out)

    def unpack(self, data: bytes, offset: int) -> tuple[Any, int]:
        chunk, offset = _take(data, offset, 1)
        if chunk[0] == 0:
            return None, offset
        if chunk[0] != 1:
            raise WireDecodeError(f"presence byte must be 0 or 1, got {chunk[0]}")
        return self.inner.unpack(data, offset)


class _Seq(FieldCodec):
    """Homogeneous tuple, u16 count prefix."""

    def __init__(self, inner: FieldCodec):
        self.inner = inner
        self.name = f"seq({inner.name})"
        self.yields_mutable = inner.yields_mutable

    def pack(self, value: Any, out: bytearray) -> None:
        try:
            count = len(value)
        except TypeError as exc:
            raise WireEncodeError(f"{value!r} is not a sequence") from exc
        if count > 0xFFFF:
            raise WireEncodeError(f"sequence of {count} items exceeds u16 count")
        out += U16._struct.pack(count)  # type: ignore[attr-defined]
        for item in value:
            self.inner.pack(item, out)

    def unpack(self, data: bytes, offset: int) -> tuple[Any, int]:
        count, offset = U16.unpack(data, offset)
        items = []
        for _ in range(count):
            item, offset = self.inner.unpack(data, offset)
            items.append(item)
        return tuple(items), offset


class _Pair(FieldCodec):
    """A 2-tuple of two inner fields (peer lists, keyword histograms)."""

    def __init__(self, first: FieldCodec, second: FieldCodec):
        self.first = first
        self.second = second
        self.name = f"pair({first.name},{second.name})"
        self.yields_mutable = first.yields_mutable or second.yields_mutable

    def pack(self, value: Any, out: bytearray) -> None:
        try:
            left, right = value
        except (TypeError, ValueError) as exc:
            raise WireEncodeError(f"{value!r} is not a 2-tuple") from exc
        self.first.pack(left, out)
        self.second.pack(right, out)

    def unpack(self, data: bytes, offset: int) -> tuple[Any, int]:
        left, offset = self.first.unpack(data, offset)
        right, offset = self.second.unpack(data, offset)
        return (left, right), offset


class _Composite(FieldCodec):
    """A value object flattened to inner fields (BPID, ids, addresses)."""

    def __init__(
        self,
        name: str,
        attrs: tuple[tuple[str, FieldCodec], ...],
        build: Callable[..., Any],
    ):
        self.name = name
        self.attrs = attrs
        self.build = build
        # Shareable only when nothing inside it and not the built object
        # itself can be changed: a frozen dataclass over immutable fields.
        self.yields_mutable = not _is_frozen_dataclass(build) or any(
            codec.yields_mutable for _attr, codec in attrs
        )

    def pack(self, value: Any, out: bytearray) -> None:
        for attr, codec in self.attrs:
            try:
                inner = getattr(value, attr)
            except AttributeError as exc:
                raise WireEncodeError(f"{value!r} has no attribute {attr!r}") from exc
            codec.pack(inner, out)

    def unpack(self, data: bytes, offset: int) -> tuple[Any, int]:
        values = []
        for _attr, codec in self.attrs:
            value, offset = codec.unpack(data, offset)
            values.append(value)
        try:
            return self.build(*values), offset
        except Exception as exc:
            raise WireDecodeError(f"cannot build {self.name}: {exc}") from exc


#: shared primitive instances (field codecs are stateless)
U8 = _Scalar(">B", "u8")
U16 = _Scalar(">H", "u16")
U32 = _Scalar(">I", "u32")
I32 = _Scalar(">i", "i32")
I64 = _Scalar(">q", "i64")
F64 = _Scalar(">d", "f64")
BOOL = _Bool()
STR = _Str()
BYTES = _Bytes()


def opt(inner: FieldCodec) -> FieldCodec:
    """Optional field: presence byte + inner."""
    return _Optional(inner)


def seq(inner: FieldCodec) -> FieldCodec:
    """Homogeneous tuple field: u16 count + items."""
    return _Seq(inner)


def pair(first: FieldCodec, second: FieldCodec) -> FieldCodec:
    """2-tuple field."""
    return _Pair(first, second)


def composite(
    name: str,
    attrs: tuple[tuple[str, FieldCodec], ...],
    build: Callable[..., Any],
) -> FieldCodec:
    """A value-object field flattened to inner fields (answer items, ids)."""
    return _Composite(name, attrs, build)


def _make_id_codecs():
    # Deferred so this module needs nothing beyond repro.errors at import
    # time (repro.ids / repro.net.address import cleanly, but keeping the
    # import inside the factory makes the no-cycle property obvious).
    from repro.ids import BPID, AgentId, QueryId
    from repro.net.address import IPAddress
    from repro.storm.heapfile import RecordId

    bpid = _Composite("bpid", (("liglo_id", STR), ("node_id", I64)), BPID)
    ipaddr = _Composite("ipaddr", (("value", STR),), IPAddress)
    agent_id = _Composite("agent-id", (("origin", bpid), ("serial", I64)), AgentId)
    query_id = _Composite("query-id", (("origin", bpid), ("serial", I64)), QueryId)
    record_id = _Composite("record-id", (("page_id", U32), ("slot", U16)), RecordId)
    return bpid, ipaddr, agent_id, query_id, record_id


BPID_CODEC, IPADDR_CODEC, AGENT_ID_CODEC, QUERY_ID_CODEC, RECORD_ID_CODEC = (
    _make_id_codecs()
)
#: Gnutella descriptor GUID: ``(origin name, serial)``.
GUID_CODEC = pair(STR, I64)


# ---------------------------------------------------------------------------
# Message registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MessageSpec:
    """One registered control-message type: identity plus field layout."""

    type_id: int
    cls: type
    fields: tuple[tuple[str, FieldCodec], ...]
    #: canonical instance used for golden vectors and conformance tests
    sample: Callable[[], Any]
    #: value-level predicate: False routes this instance to the pickle
    #: fallback (e.g. agent envelopes that carry class source)
    compactable: Callable[[Any], bool] | None = None
    #: frame bytes -> its decoded message (see :func:`decode_message`).
    #: Held here so that re-registering or dropping a type id drops its
    #: messages with it.
    memo: dict[bytes, Any] = field(default_factory=dict, repr=False, compare=False)

    @property
    def name(self) -> str:
        return f"{self.cls.__module__}.{self.cls.__qualname__}"

    def accepts(self, message: Any) -> bool:
        """True when this instance can take the compact path."""
        if type(message) is not self.cls:
            return False
        if self.compactable is not None and not self.compactable(message):
            return False
        return True


_BY_ID: dict[int, MessageSpec] = {}
_BY_CLASS: dict[type, MessageSpec] = {}


def register(
    cls: type,
    type_id: int,
    fields: tuple[tuple[str, FieldCodec], ...],
    *,
    sample: Callable[[], Any],
    compactable: Callable[[Any], bool] | None = None,
) -> MessageSpec:
    """Register a control-message type; called at import time by the
    module that defines the message (keeping this module dependency-free).

    The message must be deeply immutable, since receivers of one frame
    share one decoded message: ``cls`` a frozen dataclass, and no field
    codec that :attr:`~FieldCodec.yields_mutable`.
    """
    if not 0 < type_id <= 0xFFFF:
        raise WireCodecError(f"type id {type_id:#x} outside u16 range")
    if not _is_frozen_dataclass(cls):
        raise WireCodecError(f"{cls.__qualname__} is not a frozen dataclass")
    mutable = [name for name, codec in fields if codec.yields_mutable]
    if mutable:
        raise WireCodecError(
            f"{cls.__qualname__} fields {mutable} decode to mutable values"
        )
    existing = _BY_ID.get(type_id)
    if existing is not None and existing.cls is not cls:
        raise WireCodecError(
            f"type id {type_id:#x} already registered for {existing.name}"
        )
    spec = MessageSpec(type_id, cls, tuple(fields), sample, compactable)
    _BY_ID[type_id] = spec
    _BY_CLASS[cls] = spec
    return spec


def lookup(cls: type) -> MessageSpec | None:
    """The spec registered for ``cls`` (None when unregistered)."""
    return _BY_CLASS.get(cls)


def spec_for_id(type_id: int) -> MessageSpec | None:
    """The spec registered under ``type_id`` (None when unknown)."""
    return _BY_ID.get(type_id)


def registered_specs() -> tuple[MessageSpec, ...]:
    """Every registered spec, ordered by type id (stable for vectors)."""
    return tuple(spec for _, spec in sorted(_BY_ID.items()))


def load_registrations() -> None:
    """Import every module that registers control messages.

    Senders register as a side effect of constructing their messages;
    decode-only processes (live endpoints, conformance tests) call this
    to make all type ids resolvable up front.
    """
    import repro.agents.envelope  # noqa: F401
    import repro.baselines.client_server  # noqa: F401
    import repro.baselines.gnutella  # noqa: F401
    import repro.core.discovery  # noqa: F401
    import repro.core.sharing  # noqa: F401
    import repro.core.shipping  # noqa: F401
    import repro.liglo.messages  # noqa: F401
    import repro.replication.messages  # noqa: F401


# ---------------------------------------------------------------------------
# Frame encode / decode
# ---------------------------------------------------------------------------


def encode_message(message: Any) -> bytes:
    """The compact frame for ``message``; :class:`WireEncodeError` when it
    is unregistered, not compactable, or a value overflows its field."""
    spec = _BY_CLASS.get(type(message))
    if spec is None:
        raise WireEncodeError(f"{type(message).__qualname__} is not registered")
    if spec.compactable is not None and not spec.compactable(message):
        raise WireEncodeError(f"{spec.name} instance is not compactable")
    out = bytearray(_HEADER.pack(FRAME_MAGIC, WIRE_FORMAT_VERSION, spec.type_id))
    for name, codec in spec.fields:
        codec.pack(getattr(message, name), out)
    if len(out) > MAX_FRAME_BYTES:
        raise WireEncodeError(f"frame of {len(out)} bytes exceeds {MAX_FRAME_BYTES}")
    return bytes(out)


def try_encode(message: Any) -> bytes | None:
    """The compact frame, or None when the message must take the pickle
    fallback.  The decision depends only on the message value — never on
    the codec mode — so both modes agree on which path a message takes
    (and therefore on its charged wire size)."""
    if type(message) not in _BY_CLASS:
        return None
    try:
        return encode_message(message)
    except WireEncodeError:
        return None


def decode_message(frame: bytes) -> Any:
    """Inverse of :func:`encode_message`; :class:`WireDecodeError` on any
    malformation (bad magic/version/type id, truncation, value overrun,
    oversize, trailing garbage).

    A flood delivers the same bytes to every host at one hop depth, so a
    ``bytes`` frame is decoded once and its message kept in ``spec.memo``:
    every receiver of equal bytes gets that one message, which
    :func:`register` guarantees nothing can change.  The size, header,
    version and type-id checks still run on every call.
    """
    global decode_memo_hits, decode_memo_misses
    if len(frame) > MAX_FRAME_BYTES:
        raise WireDecodeError(
            f"oversized frame: {len(frame)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    if len(frame) < HEADER_SIZE:
        raise WireDecodeError(f"frame of {len(frame)} bytes is shorter than a header")
    magic, version, type_id = _HEADER.unpack_from(frame, 0)
    if magic != FRAME_MAGIC:
        raise WireDecodeError(f"bad magic byte {magic:#04x} (want {FRAME_MAGIC:#04x})")
    if version != WIRE_FORMAT_VERSION:
        raise WireDecodeError(
            f"unsupported wire format version {version} "
            f"(this build speaks {WIRE_FORMAT_VERSION})"
        )
    spec = _BY_ID.get(type_id)
    if spec is None:
        raise WireDecodeError(f"unknown message type id {type_id:#06x}")
    # Only real bytes are looked up or kept: a bytearray is unhashable and
    # a memoryview's buffer can change under the key.
    keyed = type(frame) is bytes
    if keyed:
        message = spec.memo.get(frame)
        if message is not None:
            decode_memo_hits += 1
            return message
    decode_memo_misses += 1
    values = {}
    offset = HEADER_SIZE
    for name, codec in spec.fields:
        values[name], offset = codec.unpack(frame, offset)
    if offset != len(frame):
        raise WireDecodeError(
            f"{len(frame) - offset} trailing bytes after a complete {spec.name}"
        )
    try:
        message = spec.cls(**values)
    except Exception as exc:
        raise WireDecodeError(f"cannot construct {spec.name}: {exc}") from exc
    if keyed:
        # Only a frame that decoded all the way gets here.
        with _MEMO_LOCK:  # check-then-insert: live endpoints decode on threads
            if len(spec.memo) >= DECODE_MEMO_CAPACITY:
                spec.memo.clear()
            spec.memo[frame] = message
    return message
