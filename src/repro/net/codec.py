"""The wire codec: one versioned frame format on two planes.

Every simulated message travels as a struct-packed binary frame,
charged at the frame's size.  Every frame opens with the same
four bytes and then takes the layout of its *plane*, named by the magic
byte::

    control  u8 magic (0xB7) | u8 version | u16 type id | body
    data     u8 magic (0xD7) | u8 version | u16 type id | u32 body length | body

Small fixed-shape control messages (LIGLO, tokens, Gnutella
descriptors, state-only agent hops) ride the control plane, capped at
1 MiB.  Payload-bearing messages (answers, fetch/active/data replies,
replica pushes, agents shipping their class source) ride the
length-prefixed data plane, capped at 8 MiB.

A message opts in by registering a :class:`MessageSpec` (an ordered
list of ``(field name, field codec)`` pairs and a plane) in the module
that defines it.  A class may register once per plane, with a value
predicate choosing between them (:class:`~repro.agents.envelope.AgentEnvelope`
is control when state-only, data when it ships its source).  Sending
anything unregistered, or carrying values that do not fit the layout,
raises :class:`~repro.errors.WireEncodeError` at the sender: it is a
sender bug, and there is no other wire.  Every message is deeply
immutable (a frozen dataclass whose field codecs yield nothing a
receiver could change) and :func:`register` refuses anything else,
because every receiver of one frame, on either plane, shares one
decoded message.  The same immutability lets a spec key the frames it
packed by message (:func:`encode_message`): equal messages are packed
once, as equal frames are parsed once.

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
    """One frame layout: its magic byte, header and size cap, and how many
    distinct parsed frames (:func:`decode_message`) and packed messages
    (:func:`encode_message`) each of its specs remembers.  A full memo is
    cleared, not aged; it holds at most ``memo_capacity`` frames of at most
    ``max_frame_bytes`` each."""

    name: str
    magic: int
    header: struct.Struct
    max_frame_bytes: int
    memo_capacity: int


#: Unframed control frames: small by definition, anything bigger is corrupt.
#: Its memo is small on purpose: a flood's wavefront holds a few distinct
#: frames, and a parse that outlives a few hundred allocations is promoted
#: to the cyclic collector's oldest generation, where a build's one-shot
#: LIGLO frames bring full collections forward (at 128, ``flood_4k``
#: set-up read +12 %).  Worst case 32 x 1 MiB per spec.
CONTROL = Plane("control", 0xB7, struct.Struct(">BBH"), 1 << 20, 32)
#: Length-prefixed data frames: a peer's whole sharable store at paper
#: scale is ~1 MiB, so anything past this is corrupt (or a sender bug).  Its memo spans a Figure 5(a) sweep point: the
#: 32-node star cycles through ~125 distinct answers, so 32 entries catch
#: 222 of a warm sweep's 800 data decodes and 128 catch 671 (256: 671).
#: Worst case 128 x 8 MiB = 1 GiB per spec; a ledger workload's answers
#: and sourced agents are a few KB each.
DATA = Plane("data", 0xD7, struct.Struct(">BBHI"), 8 << 20, 128)
#: magic byte -> its plane
PLANES = {CONTROL.magic: CONTROL, DATA.magic: DATA}

#: magic + version + type id: the bytes every frame opens with
_HEADER = CONTROL.header
HEADER_SIZE = _HEADER.size
_DATA_HEADER_SIZE = DATA.header.size
_BODY_LENGTH = struct.Struct(">I")

#: :func:`decode_message` calls served from a memo / parsed from a frame,
#: on either plane.
#: Plain ints for tests and reports; unsynchronised, so exact only when
#: one thread decodes (the simulator).
decode_memo_hits = 0
decode_memo_misses = 0
_MEMO_LOCK = threading.Lock()

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
    :class:`WireEncodeError` (a sender bug); decode-side
    problems raise :class:`WireDecodeError` (the frame is corrupt)."""

    name = "field"
    #: Can :meth:`unpack` return a value a receiver could mutate?  Every
    #: receiver of one frame shares one decoded message
    #: (:func:`decode_message`), so :func:`register` refuses such a field;
    #: the safe default is True, the immutable leaves say False and the
    #: combinators ask their inners.
    yields_mutable = True
    #: Do equal values always pack to equal bytes?  Only then may
    #: :func:`encode_message` find a frame by message value.  False by
    #: default and for floats (``-0.0 == 0.0``); combinators ask their inners.
    packs_by_value = False

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
        self.packs_by_value = fmt[-1] not in "efd"

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
    packs_by_value = True

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
    packs_by_value = True

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
    packs_by_value = True

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
        self.packs_by_value = inner.packs_by_value

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
        self.packs_by_value = inner.packs_by_value

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
        self.packs_by_value = first.packs_by_value and second.packs_by_value

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
        self.packs_by_value = all(codec.packs_by_value for _attr, codec in attrs)

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
    hostile frame cannot ask for more memory than its header admits, and
    each distinct stream is inflated once: every envelope that ships one
    class shares one source string.
    """

    name = "zsource"
    yields_mutable = False
    packs_by_value = True

    #: sha256 hexdigest of the source -> its zlib bytes
    _cache: dict[str, bytes] = {}
    #: (declared raw length, zlib bytes) -> the source they inflated to;
    #: only streams that inflated and decoded cleanly are kept
    _inflated: dict[tuple[int, bytes], str] = {}
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
            with _MEMO_LOCK:  # capacity check, evict and insert as one step
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
        key = (raw_len, bytes(chunk))
        source = self._inflated.get(key)
        if source is not None:
            return source, offset
        inflater = zlib.decompressobj()
        try:
            raw = inflater.decompress(key[1], raw_len + 1)
        except zlib.error as exc:
            raise WireDecodeError(f"corrupt compressed source: {exc}") from exc
        if len(raw) != raw_len or not inflater.eof or inflater.unused_data:
            raise WireDecodeError(
                f"source inflated past or short of the {raw_len} bytes "
                f"its header declared"
            )
        try:
            source = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireDecodeError(f"invalid utf-8 in source field: {exc}") from exc
        with _MEMO_LOCK:  # capacity check, evict and insert as one step
            if len(self._inflated) >= self._CACHE_CAPACITY:
                self._inflated.pop(next(iter(self._inflated)))
            self._inflated[key] = source
        return source, offset


COMPRESSED_SOURCE = _CompressedSource()


class _WireAddress(FieldCodec):
    """A host's :class:`~repro.net.address.IPAddress`, behind a tag byte::

        u8 0 | str value

    Any other tag is a malformed frame.
    """

    name = "address"
    yields_mutable = False
    packs_by_value = True

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
    """One registered message type: identity, plane and body layout (an
    ordered field list)."""

    type_id: int
    cls: type
    fields: tuple[tuple[str, FieldCodec], ...]
    #: canonical instance used for golden vectors and conformance tests
    sample: Callable[[], Any]
    plane: Plane = CONTROL
    #: value-level predicate: False leaves this instance to the class's
    #: next spec (agent envelopes choose their plane by whether they carry
    #: class source)
    when: Callable[[Any], bool] | None = None
    #: frame bytes -> its decoded message (see :func:`decode_message`).
    #: Held here so that re-registering or dropping a type id drops its
    #: messages with it.
    memo: dict[bytes, Any] = field(default_factory=dict, repr=False, compare=False)
    #: the mirror: message -> its frame (see :func:`encode_message`); None
    #: when a field does not pack by value
    frames: dict[Any, bytes] | None = field(default=None, repr=False, compare=False)

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
) -> MessageSpec:
    """Register a message type; called at import time by the module that
    defines the message (keeping this module dependency-free).

    A message must be deeply immutable, on either plane, since receivers
    of one frame share one decoded message: ``cls`` a frozen dataclass,
    and no field codec that :attr:`~FieldCodec.yields_mutable`.
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
    keyed = all(codec.packs_by_value for _, codec in fields)
    spec = MessageSpec(
        type_id, cls, tuple(fields), sample, plane, when,
        frames={} if keyed else None,
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
# Field-list body: pack and parse
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
    unhashable, no spec takes it, or a value overflows its field.

    A star's responders send the initiator equal answers query after
    query.  So a spec whose fields :attr:`~FieldCodec.packs_by_value`
    keeps each frame that packed and passed the size cap in
    ``spec.frames``, keyed by the deeply immutable message itself (up to
    its plane's ``memo_capacity``), and returns that very ``bytes`` object
    for every equal message; the receiver's decode memo then hits by
    identity.  (A value equal to one packed but of a type its codec
    refuses, ``1`` in a bool field, is then served, not refused.)
    """
    specs = _BY_CLASS.get(type(message))
    if specs is None:
        raise WireEncodeError(f"{type(message).__qualname__} is not registered")
    for spec in specs:
        if spec.when is None or spec.when(message):
            break
    else:
        raise WireEncodeError(f"no spec of {specs[0].name} takes this instance")
    frames = spec.frames
    if frames is not None:
        try:
            frame = frames.get(message)
        except TypeError as exc:  # a list where a tuple belongs, say
            raise WireEncodeError(f"{spec.name} value is unhashable: {exc}") from exc
        if frame is not None:
            return frame
    plane = spec.plane
    header_size = plane.header.size
    out = bytearray(header_size)
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
    frame = bytes(out)
    if frames is not None:
        with _MEMO_LOCK:  # capacity check, clear and insert as one step
            if len(frames) >= plane.memo_capacity:
                frames.clear()
            frames[message] = frame
    return frame


def decode_message(frame: bytes) -> Any:
    """Inverse of :func:`encode_message`: the frame's type id and magic
    byte must name one plane, whose layout then parses the frame;
    :class:`WireDecodeError` on any malformation (bad magic/version/type
    id, length mismatch, truncation, value overrun, oversize, trailing
    garbage).

    Receivers re-parse equal bytes on both planes: a flood delivers the
    same control frame to every host at one hop depth, and a star's
    responders send the initiator the same answers query after query.  So
    a ``bytes`` frame is decoded once and its message kept in
    ``spec.memo`` (up to its plane's ``memo_capacity``): every receiver of
    equal bytes gets that one message, which :func:`register` guarantees
    nothing can change.  The size, header, version, type-id and
    body-length checks still run on every call.
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
        body = _DATA_HEADER_SIZE
    else:
        body = HEADER_SIZE
    # Only real bytes are looked up or kept: a bytearray is unhashable and
    # a memoryview's buffer can change under the key.
    keyed = type(frame) is bytes
    if keyed:
        message = spec.memo.get(frame)
        if message is not None:
            decode_memo_hits += 1
            return message
    decode_memo_misses += 1
    message = unpack_fields(spec.fields, spec.cls, frame, body)
    if keyed:
        # Only a frame that decoded all the way gets here.
        with _MEMO_LOCK:  # capacity check, clear and insert as one step
            if len(spec.memo) >= plane.memo_capacity:
                spec.memo.clear()
            spec.memo[frame] = message
    return message
