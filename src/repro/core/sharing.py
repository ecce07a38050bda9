"""Resource sharing beyond whole files.

Section 3.2: BestPeer shares (1) static files — stored objects in StorM,
(2) *active objects* — data guarded by owner-supplied executable code
that filters the content per requester ("depending on the access right
of the requester, the active node returns the appropriate content"),
and (3) computational power — requester-shipped algorithms, realized by
dispatching custom agents (see :mod:`repro.agents`).

This module provides the active-object machinery and the out-of-network
fetch messages used by result mode 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import AccessDeniedError, SharingError
from repro.ids import BPID
from repro.net import codec as wire
from repro.storm.heapfile import RecordId

PROTO_FETCH = "bestpeer.fetch"
PROTO_FETCH_REPLY = "bestpeer.fetch.reply"
PROTO_ACTIVE = "bestpeer.active"
PROTO_ACTIVE_REPLY = "bestpeer.active.reply"

#: An active element: (requester, credential, data) -> content to release.
#: Raise :class:`AccessDeniedError` to refuse the request outright.
ActiveElement = Callable[[BPID, str, bytes], bytes]


@dataclass(frozen=True, slots=True)
class FetchRequest:
    """Mode-2 follow-up: fetch one object directly from its holder."""

    token: int
    rid: RecordId


@dataclass(frozen=True, slots=True)
class FetchReply:
    """Fetch outcome; ``payload`` is None when the object has vanished
    ("it is possible that the target node may have removed the desired
    content or updated it during the period of delay")."""

    token: int
    rid: RecordId
    payload: bytes | None
    found: bool


@dataclass(frozen=True, slots=True)
class ActiveRequest:
    """Ask an owner's active object for (filtered) content."""

    token: int
    name: str
    requester: BPID
    credential: str


@dataclass(frozen=True, slots=True)
class ActiveReply:
    """Active-object outcome: granted content or a refusal reason."""

    token: int
    name: str
    content: bytes | None
    granted: bool
    reason: str = ""


class ActiveObject:
    """Owner-side active object: data plus its guarding active element."""

    def __init__(self, name: str, data: bytes, element: ActiveElement):
        if not name:
            raise SharingError("active object needs a non-empty name")
        self.name = name
        self.data = bytes(data)
        self.element = element

    def render(self, requester: BPID, credential: str) -> bytes:
        """Run the active element for one requester.

        Returns the content the element chose to release; propagates
        :class:`AccessDeniedError` when it refuses.
        """
        return self.element(requester, credential, self.data)


class ShareCatalog:
    """A node's registry of named active objects."""

    def __init__(self):
        self._objects: dict[str, ActiveObject] = {}

    def register(self, obj: ActiveObject) -> None:
        if obj.name in self._objects:
            raise SharingError(f"active object {obj.name!r} already registered")
        self._objects[obj.name] = obj

    def unregister(self, name: str) -> None:
        if name not in self._objects:
            raise SharingError(f"no active object named {name!r}")
        del self._objects[name]

    def get(self, name: str) -> ActiveObject | None:
        return self._objects.get(name)

    def names(self) -> list[str]:
        return sorted(self._objects)


# -- compact wire registrations (type id block 0x02xx) -------------------------
#
# Requests are small fixed-shape control tokens and stay on the control
# codec; the payload-carrying *replies* register with the data-plane
# streaming codec below (type id block 0x10xx).

wire.register(
    FetchRequest,
    0x0201,
    (("token", wire.I64), ("rid", wire.RECORD_ID_CODEC)),
    sample=lambda: FetchRequest(token=9, rid=RecordId(3, 12)),
)
wire.register(
    ActiveRequest,
    0x0202,
    (
        ("token", wire.I64),
        ("name", wire.STR),
        ("requester", wire.BPID_CODEC),
        ("credential", wire.STR),
    ),
    sample=lambda: ActiveRequest(
        token=10, name="prices", requester=BPID("10.0.0.1", 7), credential="gold"
    ),
)

# -- data-plane wire registrations (type id block 0x10xx) ----------------------

wire.register(
    FetchReply,
    0x1003,
    (
        ("token", wire.I64),
        ("rid", wire.RECORD_ID_CODEC),
        ("payload", wire.opt(wire.BYTES)),
        ("found", wire.BOOL),
    ),
    sample=lambda: FetchReply(
        token=9, rid=RecordId(3, 12), payload=b"object-bytes", found=True
    ),
    plane=wire.DATA,
)
wire.register(
    ActiveReply,
    0x1004,
    (
        ("token", wire.I64),
        ("name", wire.STR),
        ("content", wire.opt(wire.BYTES)),
        ("granted", wire.BOOL),
        ("reason", wire.STR),
    ),
    sample=lambda: ActiveReply(
        token=10, name="prices", content=b"gold-tier prices", granted=True
    ),
    plane=wire.DATA,
)
