"""Answer messages: what flows straight back to the query initiator.

"Any nodes with matching results will respond to the initiating node
directly" — answers never retrace the query path (the heart of
BestPeer's advantage over CS and Gnutella return routing).

The two result modes of Section 2 are both supported: in mode 1 each
:class:`AnswerItem` carries the object payload; in mode 2 it carries
metadata only (the initiator fetches chosen objects afterwards with a
direct out-of-network download).

:class:`BatchedAnswers` is an *encoding-layer* coalescing of several
answers to the same (destination, query): the engine ships one frame
instead of N, the receiver still records each answer individually, so
per-answer delivery semantics and :class:`~repro.core.query.QueryHandle`
accounting are untouched.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import Callable, Sequence

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


class BatchedAnswers:
    """Several answers to one (destination, query), coalesced on the wire.

    The batching decision is made from the outbox contents alone.
    Decoding a batch frame yields a *lazy* instance (built via
    :meth:`lazy`) that holds zero-copy memoryview slices into the frame;
    the answer tuple is materialized once, on first access, so packets
    dropped before their handler runs never pay the record decode.
    """

    __slots__ = ("_answers", "_records", "_loader")

    def __init__(self, answers: Sequence[AnswerMessage]):
        self._answers: tuple[AnswerMessage, ...] | None = tuple(answers)
        self._records: tuple[memoryview, ...] | None = None
        self._loader: Callable[[memoryview], AnswerMessage] | None = None

    @classmethod
    def lazy(
        cls,
        records: Sequence[memoryview],
        loader: Callable[[memoryview], AnswerMessage],
    ) -> "BatchedAnswers":
        """A batch deferring record decode until :attr:`answers` is read."""
        batch = cls.__new__(cls)
        batch._answers = None
        batch._records = tuple(records)
        batch._loader = loader
        return batch

    @property
    def answers(self) -> tuple[AnswerMessage, ...]:
        """The batched answers (lazy instances decode here, once)."""
        if self._answers is None:
            assert self._records is not None and self._loader is not None
            self._answers = tuple(self._loader(record) for record in self._records)
            self._records = None
            self._loader = None
        return self._answers

    @property
    def materialized(self) -> bool:
        """True once the answer records have been decoded."""
        return self._answers is not None

    def __len__(self) -> int:
        if self._answers is None:
            assert self._records is not None
            return len(self._records)
        return len(self._answers)

    def __iter__(self) -> Iterator[AnswerMessage]:
        return iter(self.answers)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BatchedAnswers):
            return NotImplemented
        return self.answers == other.answers

    def __repr__(self) -> str:
        return f"BatchedAnswers(answers={self.answers!r})"

    def __reduce__(self):
        # Pickle mode ships the materialized form; the lazy memoryviews
        # are a decode-side optimization, never part of the value.
        return (BatchedAnswers, (self.answers,))


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

#: AnswerMessage body layout, shared by the plain frame (0x1001) and the
#: per-record bodies inside a BatchedAnswers frame (0x1002).
ANSWER_FIELDS = (
    ("query_id", wire.QUERY_ID_CODEC),
    ("responder", wire.BPID_CODEC),
    # the responder's IPAddress, so the querier can make it a direct peer
    ("responder_address", wire.ADDRESS_CODEC),
    ("hops", wire.U32),
    ("items", wire.seq(_ANSWER_ITEM_CODEC)),
)


def _sample_answer(serial: int = 1) -> AnswerMessage:
    origin = BPID("10.0.0.1", 7)
    return AnswerMessage(
        query_id=QueryId(origin, serial),
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


def _pack_batch(batch: BatchedAnswers, out: bytearray) -> None:
    answers = batch.answers
    if len(answers) > 0xFFFF:
        raise wire.WireEncodeError(f"batch of {len(answers)} answers exceeds u16")
    out += wire.U16._struct.pack(len(answers))  # type: ignore[attr-defined]
    for answer in answers:
        record = bytearray()
        wire.pack_fields(ANSWER_FIELDS, answer, record)
        out += wire.U32._struct.pack(len(record))  # type: ignore[attr-defined]
        out += record


def _load_answer_record(record: memoryview) -> AnswerMessage:
    return wire.unpack_fields(ANSWER_FIELDS, AnswerMessage, bytes(record))


def _unpack_batch(body: memoryview) -> BatchedAnswers:
    # Record *boundaries* are validated eagerly (a corrupt length table
    # fails at decode); record *contents* stay as zero-copy slices into
    # the frame until someone reads ``batch.answers``.
    count, offset = wire.U16.unpack(body, 0)
    records: list[memoryview] = []
    for _ in range(count):
        length, offset = wire.U32.unpack(body, offset)
        end = offset + length
        if end > len(body):
            raise wire.WireDecodeError(
                f"batch record of {length} bytes overruns the frame body"
            )
        records.append(body[offset:end])
        offset = end
    if offset != len(body):
        raise wire.WireDecodeError(
            f"{len(body) - offset} trailing bytes after the last batch record"
        )
    return BatchedAnswers.lazy(records, _load_answer_record)


wire.register(
    AnswerMessage,
    0x1001,
    ANSWER_FIELDS,
    sample=_sample_answer,
    plane=wire.DATA,
)
wire.register(
    BatchedAnswers,
    0x1002,
    (),
    sample=lambda: BatchedAnswers([_sample_answer(1), _sample_answer(2)]),
    plane=wire.DATA,
    pack_body=_pack_batch,
    unpack_body=_unpack_batch,
)
