"""The wire codec: one versioned frame format on two planes.

Registered messages skip pickle+gzip and travel as struct-packed binary
frames, charged at the frame's size.  Every frame opens with the same
four bytes and then takes the layout of its *plane*, named by the magic
byte::

    control  u8 magic (0xB7) | u8 version | u16 type id | body
    data     u8 magic (0xD7) | u8 version | u16 type id | u32 body length | body

Small fixed-shape control messages (LIGLO, tokens, Gnutella
descriptors, state-only agent hops) ride the control plane, capped at
1 MiB.  Payload-bearing messages (answers, fetch/active/data replies,
replica pushes, agents shipping their class source) ride the
length-prefixed data plane, capped at 8 MiB; a custom body codec can
defer work there (:class:`~repro.agents.messages.BatchedAnswers` decodes
to zero-copy slices of the frame).  Neither magic byte begins a gzip
stream (0x1f) or a protocol-4 pickle (0x80).

A message opts in by registering a :class:`MessageSpec` (an ordered
list of ``(field name, field codec)`` pairs and a plane) in the module
that defines it.  A class may register once per plane, with a value
predicate choosing between them (:class:`~repro.agents.envelope.AgentEnvelope`
is control when state-only, data when it ships its source).  Anything
unregistered, or carrying values that do not fit the layout, falls back
to the pickle+gzip path.  A control message is deeply immutable (a
frozen dataclass whose field codecs yield nothing a receiver could
change) and :func:`register` refuses anything else, because every
receiver of one control frame shares one decoded message.

The conformance battery in ``tests/net`` pins both layouts with golden
frame vectors, property tests, and a malformed-frame fault injector.

Decoding is strict: bad magic, unsupported version, unknown type id,
length mismatches, truncation, value overruns, oversized frames and
trailing garbage all raise a typed :class:`~repro.errors.WireDecodeError`
— never an arbitrary exception — so delivery loops can drop-and-count
corrupt frames without crashing.
"""

from __future__ import annotations

import hashlib
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import WireCodecError, WireDecodeError, WireEncodeError

#: Bump on ANY layout change (field added/removed/reordered/retyped, type
#: id reassigned).  The decoder rejects every other version, and the
#: golden vectors in ``tests/net/vectors/`` must be regenerated.
WIRE_FORMAT_VERSION = 1


@dataclass(frozen=True, slots=True)
class Plane:
    """One frame layout: its magic byte, header and size cap."""

    name: str
    magic: int
    header: struct.Struct
    max_frame_bytes: int


#: Unframed control frames: small by definition, anything bigger is corrupt.
CONTROL = Plane("control", 0xB7, struct.Struct(">BBH"), 1 << 20)
#: Length-prefixed data frames: a peer's whole sharable store at paper
#: scale is ~1 MiB, so anything past this is corrupt (or must take the
#: pickle+gzip fallback).
DATA = Plane("data", 0xD7, struct.Struct(">BBHI"), 8 << 20)
#: magic byte -> its plane
PLANES = {CONTROL.magic: CONTROL, DATA.magic: DATA}

#: magic + version + type id: the bytes every frame opens with
_HEADER = CONTROL.header
HEADER_SIZE = _HEADER.size
_DATA_HEADER_SIZE = DATA.header.size
_BODY_LENGTH = struct.Struct(">I")

#: Distinct parsed frames each control :class:`MessageSpec` remembers; a
#: full memo is cleared, not aged (a flood re-parses its handful of live
#: frames).  Small on purpose: a flood's wavefront holds a few distinct
#: frames, and a parse that outlives a few hundred allocations is promoted
#: to the cyclic collector's oldest generation, where a build's one-shot
#: LIGLO frames bring full collections forward (at 128, ``flood_4k``
#: set-up read +12 %).
DECODE_MEMO_CAPACITY = 32
#: :func:`decode_message` calls served from a memo / parsed from a control
#: frame.  Plain ints for tests and reports; unsynchronised, so exact only
#: when one thread decodes (the simulator).
decode_memo_hits = 0
decode_memo_misses = 0
_MEMO_LOCK = threading.Lock()

#: Packet/EncodedPayload codec tags: a frame of either plane, or the
#: pickle that unregistered payloads still travel as.
CODEC_FRAME = "frame"
CODEC_PICKLE = "pickle"

#: zlib level for the compressed-source field; fixed so encoded frames
#: are deterministic across processes and interpreter versions.
_SOURCE_ZLIB_LEVEL = 6


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


class _CompressedSource(FieldCodec):
    """Class source text, zlib-compressed inside a data frame.

    Layout: ``u32 raw length | u32 compressed length | zlib bytes``.
    Source text is large and highly compressible; compressing just this
    field keeps the frame small *and* the rest of the message on the
    struct path.  The compression work is cached per sha256 digest of the
    source (the digest :mod:`repro.agents.codeship` keys its compile cache
    with), so each class's source is deflated once per process however
    many envelopes carry it.  Decoding inflates at most the declared raw
    length (plus one byte to catch a stream that runs on), so a small
    hostile frame cannot ask for more memory than its header admits.
    """

    name = "zsource"

    #: sha256 hexdigest of the source -> its zlib bytes
    _cache: dict[str, bytes] = {}
    _CACHE_CAPACITY = 64

    def pack(self, value: Any, out: bytearray) -> None:
        if not isinstance(value, str):
            raise WireEncodeError(f"{value!r} is not a source string")
        raw = value.encode("utf-8")
        if len(raw) > DATA.max_frame_bytes:
            raise WireEncodeError(f"source of {len(raw)} bytes exceeds the frame cap")
        digest = hashlib.sha256(raw).hexdigest()
        blob = self._cache.get(digest)
        if blob is None:
            blob = zlib.compress(raw, _SOURCE_ZLIB_LEVEL)
            if len(self._cache) >= self._CACHE_CAPACITY:
                self._cache.pop(next(iter(self._cache)))
            self._cache[digest] = blob
        out += U32._struct.pack(len(raw))  # type: ignore[attr-defined]
        out += U32._struct.pack(len(blob))  # type: ignore[attr-defined]
        out += blob

    def unpack(self, data: bytes, offset: int) -> tuple[Any, int]:
        raw_len, offset = U32.unpack(data, offset)
        blob_len, offset = U32.unpack(data, offset)
        if raw_len > DATA.max_frame_bytes:
            raise WireDecodeError(
                f"declared source of {raw_len} bytes exceeds the frame cap"
            )
        chunk, offset = _take(data, offset, blob_len)
        inflater = zlib.decompressobj()
        try:
            raw = inflater.decompress(bytes(chunk), raw_len + 1)
        except zlib.error as exc:
            raise WireDecodeError(f"corrupt compressed source: {exc}") from exc
        if len(raw) != raw_len or not inflater.eof or inflater.unused_data:
            raise WireDecodeError(
                f"source inflated past or short of the {raw_len} bytes "
                f"its header declared"
            )
        try:
            return raw.decode("utf-8"), offset
        except UnicodeDecodeError as exc:
            raise WireDecodeError(f"invalid utf-8 in source field: {exc}") from exc


COMPRESSED_SOURCE = _CompressedSource()


class _WireAddress(FieldCodec):
    """A host's :class:`~repro.net.address.IPAddress`, behind a tag byte::

        u8 0 | str value

    Any other tag is a malformed frame.
    """

    name = "address"

    def pack(self, value: Any, out: bytearray) -> None:
        from repro.net.address import IPAddress

        if not isinstance(value, IPAddress):
            raise WireEncodeError(f"{value!r} is not an IPAddress")
        out += b"\x00"
        STR.pack(value.value, out)

    def unpack(self, data: bytes, offset: int) -> tuple[Any, int]:
        from repro.net.address import IPAddress

        chunk, offset = _take(data, offset, 1)
        tag = chunk[0]
        if tag != 0:
            raise WireDecodeError(f"address tag must be 0, got {tag}")
        value, offset = STR.unpack(data, offset)
        return IPAddress(value), offset


ADDRESS_CODEC = _WireAddress()


# ---------------------------------------------------------------------------
# Message registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MessageSpec:
    """One registered message type: identity, plane and body layout.

    Bodies are usually an ordered field list; a data-plane type needing a
    custom body (batched answers with their per-record length prefixes
    and lazy decode) supplies ``pack_body`` / ``unpack_body`` instead.
    """

    type_id: int
    cls: type
    fields: tuple[tuple[str, FieldCodec], ...]
    #: canonical instance used for golden vectors and conformance tests
    sample: Callable[[], Any]
    plane: Plane = CONTROL
    #: value-level predicate: False leaves this instance to the class's
    #: next spec, or to the pickle fallback (agent envelopes choose their
    #: plane by whether they carry class source)
    when: Callable[[Any], bool] | None = None
    #: custom body codec overriding ``fields`` (both or neither)
    pack_body: Callable[[Any, bytearray], None] | None = None
    unpack_body: Callable[[memoryview], Any] | None = None
    #: control frame bytes -> its decoded message (see
    #: :func:`decode_message`).  Held here so that re-registering or
    #: dropping a type id drops its messages with it.
    memo: dict[bytes, Any] = field(default_factory=dict, repr=False, compare=False)

    @property
    def name(self) -> str:
        return f"{self.cls.__module__}.{self.cls.__qualname__}"


_BY_ID: dict[int, MessageSpec] = {}
#: class -> its specs in registration order
_BY_CLASS: dict[type, tuple[MessageSpec, ...]] = {}


def register(
    cls: type,
    type_id: int,
    fields: tuple[tuple[str, FieldCodec], ...],
    *,
    sample: Callable[[], Any],
    plane: Plane = CONTROL,
    when: Callable[[Any], bool] | None = None,
    pack_body: Callable[[Any, bytearray], None] | None = None,
    unpack_body: Callable[[memoryview], Any] | None = None,
) -> MessageSpec:
    """Register a message type; called at import time by the module that
    defines the message (keeping this module dependency-free).

    A control message must be deeply immutable, since receivers of one
    control frame share one decoded message: ``cls`` a frozen dataclass,
    and no field codec that :attr:`~FieldCodec.yields_mutable`.  Custom
    bodies are for the data plane, which is never memoised.
    """
    if not 0 < type_id <= 0xFFFF:
        raise WireCodecError(f"type id {type_id:#x} outside u16 range")
    if (pack_body is None) != (unpack_body is None):
        raise WireCodecError("pack_body and unpack_body must be given together")
    if plane is CONTROL:
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
    spec = MessageSpec(
        type_id, cls, tuple(fields), sample, plane, when, pack_body, unpack_body
    )
    _BY_ID[type_id] = spec
    others = tuple(s for s in _BY_CLASS.get(cls, ()) if s.type_id != type_id)
    _BY_CLASS[cls] = others + (spec,)
    return spec


def spec_for_id(type_id: int) -> MessageSpec | None:
    """The spec registered under ``type_id`` (None when unknown)."""
    return _BY_ID.get(type_id)


def registered_specs() -> tuple[MessageSpec, ...]:
    """Every registered spec of both planes, ordered by type id (stable
    for vectors)."""
    return tuple(spec for _, spec in sorted(_BY_ID.items()))


# ---------------------------------------------------------------------------
# Field-list helpers (shared with custom-body codecs like BatchedAnswers)
# ---------------------------------------------------------------------------


def pack_fields(
    fields: tuple[tuple[str, FieldCodec], ...], message: Any, out: bytearray
) -> None:
    """Append ``message``'s fields to ``out`` in declaration order."""
    for name, codec in fields:
        codec.pack(getattr(message, name), out)


def unpack_fields(
    fields: tuple[tuple[str, FieldCodec], ...], cls: type, data: bytes, offset: int = 0
) -> Any:
    """Build ``cls`` from the fields packed in ``data`` from ``offset`` on
    (strict: they must end exactly where ``data`` does)."""
    values: dict[str, Any] = {}
    for name, codec in fields:
        values[name], offset = codec.unpack(data, offset)
    if offset != len(data):
        raise WireDecodeError(
            f"{len(data) - offset} trailing bytes after a complete {cls.__qualname__}"
        )
    try:
        return cls(**values)
    except Exception as exc:
        raise WireDecodeError(f"cannot construct {cls.__qualname__}: {exc}") from exc


# ---------------------------------------------------------------------------
# Frame encode / decode
# ---------------------------------------------------------------------------


def encode_message(message: Any) -> bytes:
    """The frame for ``message`` on the plane of the first of its class's
    specs that takes it; :class:`WireEncodeError` when it is unregistered,
    no spec takes it, or a value overflows its field."""
    specs = _BY_CLASS.get(type(message))
    if specs is None:
        raise WireEncodeError(f"{type(message).__qualname__} is not registered")
    for spec in specs:
        if spec.when is None or spec.when(message):
            break
    else:
        raise WireEncodeError(f"no spec of {specs[0].name} takes this instance")
    plane = spec.plane
    header_size = plane.header.size
    out = bytearray(header_size)
    if spec.pack_body is not None:
        spec.pack_body(message, out)
    else:
        pack_fields(spec.fields, message, out)
    if len(out) > plane.max_frame_bytes:
        raise WireEncodeError(
            f"frame of {len(out)} bytes exceeds {plane.max_frame_bytes}"
        )
    if plane is CONTROL:
        plane.header.pack_into(out, 0, plane.magic, WIRE_FORMAT_VERSION, spec.type_id)
    else:
        plane.header.pack_into(
            out, 0, plane.magic, WIRE_FORMAT_VERSION, spec.type_id,
            len(out) - header_size,
        )
    return bytes(out)


def try_encode(message: Any) -> bytes | None:
    """The frame, or None when the message must take the pickle fallback.
    The decision depends only on the message value, so every sender agrees
    on which path a message takes (and therefore on its charged wire
    size)."""
    if type(message) not in _BY_CLASS:
        return None
    try:
        return encode_message(message)
    except WireEncodeError:
        return None


def decode_message(frame: bytes) -> Any:
    """Inverse of :func:`encode_message`: the frame's type id and magic
    byte must name one plane, whose layout then parses the frame;
    :class:`WireDecodeError` on any malformation (bad magic/version/type
    id, length mismatch, truncation, value overrun, oversize, trailing
    garbage).

    A flood delivers the same bytes to every host at one hop depth, so a
    ``bytes`` control frame is decoded once and its message kept in
    ``spec.memo``: every receiver of equal bytes gets that one message,
    which :func:`register` guarantees nothing can change.  The size,
    header, version and type-id checks still run on every call.

    Data frames are parsed on every call.  Types registered with a custom
    ``unpack_body`` may defer record decoding
    (:class:`~repro.agents.messages.BatchedAnswers` holds zero-copy
    memoryview slices into the frame); record-level corruption then
    surfaces as a :class:`WireDecodeError` at first materialization,
    inside the delivery loop's drop-and-count guard.
    """
    global decode_memo_hits, decode_memo_misses
    size = len(frame)
    if size < HEADER_SIZE:
        raise WireDecodeError(f"frame of {size} bytes is shorter than a header")
    magic, version, type_id = _HEADER.unpack_from(frame, 0)
    spec = _BY_ID.get(type_id)
    if spec is None:
        raise WireDecodeError(f"unknown message type id {type_id:#06x}")
    # The type id names a plane; the magic byte must name the same one.
    plane = spec.plane
    if magic != plane.magic:
        raise WireDecodeError(
            f"bad magic byte {magic:#04x} for {plane.name}-plane type id "
            f"{type_id:#06x} (want {plane.magic:#04x})"
        )
    if size > plane.max_frame_bytes:
        raise WireDecodeError(
            f"oversized frame: {size} bytes exceeds {plane.max_frame_bytes}"
        )
    if version != WIRE_FORMAT_VERSION:
        raise WireDecodeError(
            f"unsupported wire format version {version} "
            f"(this build speaks {WIRE_FORMAT_VERSION})"
        )
    if plane is DATA:
        if size < _DATA_HEADER_SIZE:
            raise WireDecodeError(f"frame of {size} bytes is shorter than a header")
        (body_len,) = _BODY_LENGTH.unpack_from(frame, HEADER_SIZE)
        if size != _DATA_HEADER_SIZE + body_len:
            raise WireDecodeError(
                f"frame of {size} bytes does not match its declared "
                f"{body_len}-byte body (truncated or trailing bytes)"
            )
        if spec.unpack_body is not None:
            return spec.unpack_body(memoryview(frame)[_DATA_HEADER_SIZE:])
        return unpack_fields(spec.fields, spec.cls, frame, _DATA_HEADER_SIZE)
    # Only real bytes are looked up or kept: a bytearray is unhashable and
    # a memoryview's buffer can change under the key.
    keyed = type(frame) is bytes
    if keyed:
        message = spec.memo.get(frame)
        if message is not None:
            decode_memo_hits += 1
            return message
    decode_memo_misses += 1
    message = unpack_fields(spec.fields, spec.cls, frame, HEADER_SIZE)
    if keyed:
        # Only a frame that decoded all the way gets here.
        with _MEMO_LOCK:  # capacity check, clear and insert as one step
            if len(spec.memo) >= DECODE_MEMO_CAPACITY:
                spec.memo.clear()
            spec.memo[frame] = message
    return message
