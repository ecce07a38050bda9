"""Answer messages: what flows straight back to the query initiator.

"Any nodes with matching results will respond to the initiating node
directly" — answers never retrace the query path (the heart of
BestPeer's advantage over CS and Gnutella return routing).

The two result modes of Section 2 are both supported: in mode 1 each
:class:`AnswerItem` carries the object payload; in mode 2 it carries
metadata only (the initiator fetches chosen objects afterwards with a
direct out-of-network download).

Each :meth:`~repro.agents.engine.AgentContext.reply` is one
:class:`AnswerMessage` frame on the data plane; an agent that replies
twice sends two frames, and the initiator records each on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ids import BPID, QueryId
from repro.net.address import IPAddress
from repro.storm.heapfile import RecordId

#: Mode 1 of Section 2: matching nodes return the answers directly.
MODE_DIRECT = "direct"
#: Mode 2: matching nodes return metadata; the initiator fetches later.
MODE_METADATA = "metadata"


@dataclass(frozen=True, slots=True)
class AnswerItem:
    """One matching object, as reported to the initiator."""

    rid: RecordId
    keywords: tuple[str, ...]
    size: int
    #: present in MODE_DIRECT, None in MODE_METADATA
    payload: bytes | None = None


@dataclass(frozen=True, slots=True)
class AnswerMessage:
    """One responder's complete answer for one query."""

    query_id: QueryId
    responder: BPID
    responder_address: IPAddress
    #: how far (in overlay hops) the responder was from the initiator
    hops: int
    items: tuple[AnswerItem, ...]

    @property
    def answer_count(self) -> int:
        return len(self.items)

    @property
    def answer_bytes(self) -> int:
        """Total object bytes represented (payloads or reported sizes)."""
        return sum(item.size for item in self.items)


# -- data-plane wire registrations (type id block 0x10xx) ----------------------
#
# Answers are the bytes that dominate a flood at scale: every responder
# sends one straight back to the initiator.  They carry object payloads,
# so they belong on the data plane, not the control plane.

from repro.net import codec as wire

_ANSWER_ITEM_CODEC = wire.composite(
    "answer-item",
    (
        ("rid", wire.RECORD_ID_CODEC),
        ("keywords", wire.seq(wire.STR)),
        ("size", wire.I64),
        ("payload", wire.opt(wire.BYTES)),
    ),
    AnswerItem,
)

#: AnswerMessage body layout (0x1001).
ANSWER_FIELDS = (
    ("query_id", wire.QUERY_ID_CODEC),
    ("responder", wire.BPID_CODEC),
    # the responder's IPAddress, so the querier can make it a direct peer
    ("responder_address", wire.ADDRESS_CODEC),
    ("hops", wire.U32),
    ("items", wire.seq(_ANSWER_ITEM_CODEC)),
)


def _sample_answer() -> AnswerMessage:
    origin = BPID("10.0.0.1", 7)
    return AnswerMessage(
        query_id=QueryId(origin, 1),
        responder=BPID("10.0.0.2", 9),
        responder_address=IPAddress("10.0.4.9"),
        hops=2,
        items=(
            AnswerItem(
                rid=RecordId(3, 12),
                keywords=("music", "mp3"),
                size=5,
                payload=b"notes",
            ),
            AnswerItem(
                rid=RecordId(4, 1),
                keywords=("music",),
                size=9,
                payload=None,
            ),
        ),
    )


wire.register(
    AnswerMessage,
    0x1001,
    ANSWER_FIELDS,
    sample=_sample_answer,
    plane=wire.DATA,
)
