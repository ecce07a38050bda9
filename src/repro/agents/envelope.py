"""The wire form of a travelling agent.

"The lifetime of an agent is determined by Time-to-live (TTL) and Hops
variables. ... Once received an incoming agent, if the agent is not
expired (if TTL > 0), remote host will decrease the TTL values of an
agent before sending it to any other host that it is directly connected
to.  Hops variable will be increased at the same time too.  The redundant
use of TTL and Hops together is to enable hosts to drop any incoming
agent that already has a copy on the site."

The agent's instance state travels *frozen*: pickled once where it is
set (:func:`freeze_state` at dispatch, :meth:`AgentEnvelope.with_state`
after an in-transit merge) and unpickled once per execution
(:meth:`AgentEnvelope.thaw`).  An envelope is therefore deeply
immutable, so every host that receives one frame can share one decoded
envelope, and every relay at one hop depth forwards the same next-hop
object (:meth:`AgentEnvelope.hop`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any

from repro.errors import WireDecodeError
from repro.ids import BPID, AgentId, QueryId
from repro.net.address import IPAddress
from repro.util.serialization import deserialize, serialize

#: Default agent lifetime, matching Gnutella's customary TTL.
DEFAULT_TTL = 7

#: Flooding mode: clone-and-forward to every direct peer.
MODE_FLOOD = "flood"
#: Itinerary mode: visit a pre-defined path of hosts, one by one.
MODE_ITINERARY = "itinerary"


def freeze_state(state: dict[str, Any]) -> bytes:
    """The travelling form of an agent's plain-data state (one pickle)."""
    return serialize(state)


@dataclass(frozen=True, slots=True)
class AgentEnvelope:
    """Everything that crosses the wire for one agent hop."""

    agent_id: AgentId
    class_name: str
    #: class source; None when the sender believes the receiver has it
    source: str | None
    #: plain-data instance state, frozen by :func:`freeze_state`
    state: bytes
    ttl: int
    hops: int
    initiator: BPID
    initiator_address: IPAddress
    query_id: QueryId | None = None
    mode: str = MODE_FLOOD
    #: itinerary mode only: remaining stops after the current one
    path: tuple[IPAddress, ...] = field(default=())
    #: ``hop(None)``'s result, kept so every relay of one shared envelope
    #: forwards one object and the identity-keyed wire encoder encodes it
    #: once per hop depth
    _next_hop: "AgentEnvelope | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def expired(self) -> bool:
        """An expired agent is executed locally but travels no further."""
        return self.ttl <= 0

    def hop(self, source: str | None) -> "AgentEnvelope":
        """The envelope for the next hop: TTL down, Hops up."""
        if source is not None:
            return replace(self, ttl=self.ttl - 1, hops=self.hops + 1, source=source)
        if self._next_hop is None:
            object.__setattr__(
                self,
                "_next_hop",
                replace(self, ttl=self.ttl - 1, hops=self.hops + 1, source=None),
            )
        return self._next_hop

    def thaw(self) -> dict[str, Any]:
        """A fresh copy of the state for one execution.

        Peer bytes are unpickled here and nowhere else; a corrupt blob
        raises :class:`~repro.errors.WireDecodeError`, which the delivery
        loop counts as a dropped frame.
        """
        try:
            return deserialize(self.state)
        except Exception as exc:
            raise WireDecodeError(f"corrupt agent state: {exc}") from exc

    def __getstate__(self) -> list[Any]:
        # The hop memo never travels: a pickled envelope is its wire fields.
        return [
            None if f.name == "_next_hop" else getattr(self, f.name)
            for f in fields(self)
        ]

    def with_source(self, source: str | None) -> "AgentEnvelope":
        """Same hop, different source inclusion (per-destination choice).

        Returns ``self`` when nothing changes, so a flood fan-out sends
        one envelope *object* to every peer and the network's wire
        encoder serializes it exactly once.
        """
        if source == self.source:
            return self
        return replace(self, source=source)

    def with_state(self, state: dict[str, Any]) -> "AgentEnvelope":
        """Same envelope, refreshed (and frozen) state: itinerary and
        top-k agents carry what they learned to the next host."""
        return replace(self, state=freeze_state(state))

    def advance_path(self) -> "AgentEnvelope":
        """Pop the next itinerary stop."""
        return replace(self, path=self.path[1:])


# -- control-plane wire registration (type id block 0x03xx) --------------------
#
# Only state-only hops (``source is None``) ride the control plane: a
# shipped class source is a large, highly compressible text blob, which
# the data-plane registration below deflates inside the frame.

from repro.net import codec as wire

wire.register(
    AgentEnvelope,
    0x0301,
    (
        ("agent_id", wire.AGENT_ID_CODEC),
        ("class_name", wire.STR),
        ("source", wire.opt(wire.STR)),
        ("state", wire.BYTES),
        ("ttl", wire.I32),
        ("hops", wire.U32),
        ("initiator", wire.BPID_CODEC),
        ("initiator_address", wire.IPADDR_CODEC),
        ("query_id", wire.opt(wire.QUERY_ID_CODEC)),
        ("mode", wire.STR),
        ("path", wire.seq(wire.IPADDR_CODEC)),
    ),
    sample=lambda: AgentEnvelope(
        agent_id=AgentId(BPID("10.0.0.1", 7), 3),
        class_name="SearchAgent",
        source=None,
        state=freeze_state({"keyword": "music", "matches": 2}),
        ttl=5,
        hops=2,
        initiator=BPID("10.0.0.1", 7),
        initiator_address=IPAddress("10.0.4.2"),
        query_id=QueryId(BPID("10.0.0.1", 7), 1),
        mode=MODE_FLOOD,
        path=(),
    ),
    when=lambda envelope: envelope.source is None,
)

# -- data-plane wire registration (type id block 0x10xx) -----------------------
#
# Sourced hops (the expensive ones — they carry the whole class text)
# ride the data plane with the source zlib-compressed *inside* the
# frame, cached by codeship's sha256 digest so each distinct class is
# compressed once per process, not once per envelope.

wire.register(
    AgentEnvelope,
    0x1006,
    (
        ("agent_id", wire.AGENT_ID_CODEC),
        ("class_name", wire.STR),
        ("source", wire.COMPRESSED_SOURCE),
        ("state", wire.BYTES),
        ("ttl", wire.I32),
        ("hops", wire.U32),
        ("initiator", wire.BPID_CODEC),
        # the initiator's IPAddress, which answers are sent to
        ("initiator_address", wire.ADDRESS_CODEC),
        ("query_id", wire.opt(wire.QUERY_ID_CODEC)),
        ("mode", wire.STR),
        ("path", wire.seq(wire.ADDRESS_CODEC)),
    ),
    sample=lambda: AgentEnvelope(
        agent_id=AgentId(BPID("10.0.0.1", 7), 3),
        class_name="DemoAgent",
        source="class DemoAgent:\n    def run(self, node):\n        return []\n",
        state=freeze_state({"keyword": "music"}),
        ttl=5,
        hops=2,
        initiator=BPID("10.0.0.1", 7),
        initiator_address=IPAddress("10.0.4.2"),
        query_id=QueryId(BPID("10.0.0.1", 7), 1),
        mode=MODE_FLOOD,
        path=(),
    ),
    plane=wire.DATA,
    when=lambda envelope: envelope.source is not None,
)
