"""Wire messages of the replication protocol.

Owner-driven placement is a three-step handshake plus an invalidation
path:

* :class:`ReplicaOffer` (control, ``0x010B``) — the owner proposes a
  batch of records to one candidate holder (count and byte total only,
  so a holder can decline cheaply).
* :class:`ReplicaAccept` (control, ``0x010C``) — the holder's verdict.
* :class:`ReplicaPush` (data, ``0x1009``) — on acceptance the owner
  ships the actual versioned records; payload-carrying, so it rides the
  ``0xD7`` data plane like answers and fetch replies.
* :class:`ReplicaInvalidate` (control, ``0x010D``) — reshare or delete
  at the owner invalidates the holders' copies.  A delete is final
  (holders tombstone the version so no in-flight push resurrects it); a
  reshare names the replacement record so the holder can lazily
  read-repair with an ordinary out-of-network fetch.

Frame ids continue the established blocks: control ``0x010B``+ after
the LIGLO hint frames, data ``0x1009``+ after the top-k digests.  All
four are golden-vectored by the conformance batteries in ``tests/net``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ids import BPID
from repro.net import codec as wire
from repro.net.address import IPAddress
from repro.storm.heapfile import RecordId

PROTO_REPLICA_OFFER = "bestpeer.replica.offer"
PROTO_REPLICA_ACCEPT = "bestpeer.replica.accept"
PROTO_REPLICA_PUSH = "bestpeer.replica.push"
PROTO_REPLICA_INVALIDATE = "bestpeer.replica.invalidate"


@dataclass(frozen=True, slots=True)
class ReplicaOffer:
    """Owner proposes a replica batch to one candidate holder."""

    token: int
    owner: BPID
    record_count: int
    total_bytes: int


@dataclass(frozen=True, slots=True)
class ReplicaAccept:
    """Holder's verdict on a :class:`ReplicaOffer`."""

    token: int
    holder: BPID
    accepted: bool
    reason: str = ""


@dataclass(frozen=True, slots=True)
class ReplicaRecord:
    """One versioned record inside a :class:`ReplicaPush`.

    ``rid`` is the *owner's* record id — the stable identity replicas
    are versioned and invalidated under; holders keep their own private
    storage rid for the copy.
    """

    rid: RecordId
    version: int
    keywords: tuple[str, ...]
    payload: bytes


@dataclass(frozen=True, slots=True)
class ReplicaPush:
    """The accepted batch itself: versioned records, payloads included."""

    token: int
    owner: BPID
    owner_address: IPAddress
    records: tuple[ReplicaRecord, ...]

    @property
    def record_count(self) -> int:
        return len(self.records)

    @property
    def total_bytes(self) -> int:
        return sum(len(record.payload) for record in self.records)


@dataclass(frozen=True, slots=True)
class ReplicaInvalidate:
    """Owner tells a holder one of its copies is stale or deleted.

    ``delete=True`` retires the record for good — the holder tombstones
    ``version`` so a late or replayed push can never resurrect it.
    ``delete=False`` marks a reshare: ``repair_rid`` names the
    replacement record at the owner, which the holder fetches lazily
    (an ordinary out-of-network download) and re-indexes under
    ``repair_keywords`` to repair its copy.  ``keywords`` are the stale
    record's keywords, for result-cache invalidation at the holder.
    """

    owner: BPID
    rid: RecordId
    version: int
    delete: bool
    keywords: tuple[str, ...] = ()
    repair_rid: RecordId | None = None
    repair_keywords: tuple[str, ...] = ()


# -- compact wire registrations (control block 0x01xx) --------------------------

_SAMPLE_OWNER = BPID("10.0.0.1", 7)
_SAMPLE_HOLDER = BPID("10.0.0.2", 9)

wire.register(
    ReplicaOffer,
    0x010B,
    (
        ("token", wire.I64),
        ("owner", wire.BPID_CODEC),
        ("record_count", wire.U16),
        ("total_bytes", wire.I64),
    ),
    sample=lambda: ReplicaOffer(
        token=61, owner=_SAMPLE_OWNER, record_count=2, total_bytes=1088
    ),
)
wire.register(
    ReplicaAccept,
    0x010C,
    (
        ("token", wire.I64),
        ("holder", wire.BPID_CODEC),
        ("accepted", wire.BOOL),
        ("reason", wire.STR),
    ),
    sample=lambda: ReplicaAccept(token=61, holder=_SAMPLE_HOLDER, accepted=True),
)
wire.register(
    ReplicaInvalidate,
    0x010D,
    (
        ("owner", wire.BPID_CODEC),
        ("rid", wire.RECORD_ID_CODEC),
        ("version", wire.U32),
        ("delete", wire.BOOL),
        ("keywords", wire.seq(wire.STR)),
        ("repair_rid", wire.opt(wire.RECORD_ID_CODEC)),
        ("repair_keywords", wire.seq(wire.STR)),
    ),
    sample=lambda: ReplicaInvalidate(
        owner=_SAMPLE_OWNER,
        rid=RecordId(3, 12),
        version=2,
        delete=False,
        keywords=("music", "mp3"),
        repair_rid=RecordId(3, 13),
        repair_keywords=("music", "flac"),
    ),
)

# -- data-plane wire registrations (block 0x10xx) -------------------------------

_REPLICA_RECORD_CODEC = wire.composite(
    "replica-record",
    (
        ("rid", wire.RECORD_ID_CODEC),
        ("version", wire.U32),
        ("keywords", wire.seq(wire.STR)),
        ("payload", wire.BYTES),
    ),
    ReplicaRecord,
)

wire.register(
    ReplicaPush,
    0x1009,
    (
        ("token", wire.I64),
        ("owner", wire.BPID_CODEC),
        ("owner_address", wire.ADDRESS_CODEC),
        ("records", wire.seq(_REPLICA_RECORD_CODEC)),
    ),
    sample=lambda: ReplicaPush(
        token=61,
        owner=_SAMPLE_OWNER,
        owner_address=IPAddress("10.0.4.9"),
        records=(
            ReplicaRecord(
                rid=RecordId(3, 12),
                version=1,
                keywords=("music", "mp3"),
                payload=b"notes",
            ),
        ),
    ),
    plane=wire.DATA,
)
