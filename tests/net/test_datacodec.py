"""The wire codec's data plane: registry, framing, compressed source.

The conformance battery from ``conformance.py`` runs here over every
data-plane spec — same fault classes, larger frames.
"""

from __future__ import annotations

import tracemalloc
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.agents.engine import PROTO_ANSWER
from repro.agents.envelope import AgentEnvelope
from repro.agents.messages import (
    ANSWER_FIELDS,
    AnswerItem,
    AnswerMessage,
)
from repro.core.sharing import FetchReply
from repro.errors import WireCodecError, WireDecodeError, WireEncodeError
from repro.ids import BPID, QueryId
from repro.net import codec as wire
from repro.net.address import IPAddress
from repro.net.codec import (
    CONTROL,
    DATA,
    decode_message,
    encode_message,
    spec_for_id,
)
from repro.net.message import PACKET_OVERHEAD_BYTES, Packet
from repro.net.network import Network
from repro.sim import Simulator
from repro.storm.heapfile import RecordId
from repro.util.tracing import Tracer

from .conformance import CodecConformance, spec_of
from .test_codec import _strategy_for


class TestDataCodecConformance(CodecConformance):
    """The full truncation/bit-flip/fuzz battery over every data frame."""

    plane = DATA


# ---------------------------------------------------------------------------
# Registry / plane choice
# ---------------------------------------------------------------------------


def test_unregistered_type_is_not_encodable():
    with pytest.raises(WireEncodeError, match="not registered"):
        encode_message(("not", "registered"))


def test_stateonly_envelope_is_not_streamable():
    """Envelopes without source stay on the control plane."""
    spec = spec_of(AgentEnvelope, DATA)
    sourced = spec.sample()
    stateonly = sourced.with_source(None)
    assert spec.when(sourced)
    assert not spec.when(stateonly)
    assert encode_message(sourced)[0] == DATA.magic
    assert encode_message(stateonly)[0] == CONTROL.magic


def test_oversized_value_raises_a_typed_encode_error():
    """A by-value oversize is a sender bug: there is no other wire."""
    huge = FetchReply(
        token=1,
        rid=RecordId(0, 0),
        payload=b"\x00" * (DATA.max_frame_bytes + 1),
        found=True,
    )
    with pytest.raises(WireEncodeError, match="exceeds"):
        encode_message(huge)


def test_type_id_collision_rejected():
    with pytest.raises(WireCodecError, match="already registered"):
        wire.register(
            FetchReply, 0x1001, (), sample=lambda: None, plane=DATA
        )  # 0x1001 is AnswerMessage's


# ---------------------------------------------------------------------------
# Compressed-source field
# ---------------------------------------------------------------------------


def test_compressed_source_round_trips_and_caches():
    source = "class CacheProbe:\n    marker = 'x' * 40\n"
    before = dict(wire._CompressedSource._cache)
    out = bytearray()
    wire.COMPRESSED_SOURCE.pack(source, out)
    out2 = bytearray()
    wire.COMPRESSED_SOURCE.pack(source, out2)
    assert bytes(out) == bytes(out2)
    value, offset = wire.COMPRESSED_SOURCE.unpack(bytes(out), 0)
    assert value == source
    assert offset == len(out)
    added = {
        k: v for k, v in wire._CompressedSource._cache.items() if k not in before
    }
    assert len(added) == 1  # one digest entry for one distinct source


def test_compressed_source_rejects_corrupt_zlib():
    out = bytearray()
    wire.COMPRESSED_SOURCE.pack("class X:\n    pass\n", out)
    corrupted = bytearray(out)
    corrupted[-1] ^= 0xFF
    with pytest.raises(WireDecodeError):
        wire.COMPRESSED_SOURCE.unpack(bytes(corrupted), 0)


def test_compressed_source_rejects_length_lie():
    source = "class Y:\n    pass\n"
    blob = zlib.compress(source.encode(), 6)
    lying = bytearray()
    lying += wire.U32._struct.pack(len(source.encode()) + 1)  # wrong raw len
    lying += wire.U32._struct.pack(len(blob))
    lying += blob
    with pytest.raises(WireDecodeError, match="inflated"):
        wire.COMPRESSED_SOURCE.unpack(bytes(lying), 0)


def _bomb_frame(declared: int, inflated: int) -> bytes:
    """A sourced-envelope data frame whose source field declares
    ``declared`` raw bytes but inflates to ``inflated``."""
    deflater = zlib.compressobj(9)
    chunk = b"\x00" * (1 << 20)
    blob = b"".join(deflater.compress(chunk) for _ in range(inflated >> 20))
    blob += deflater.flush()
    spec = spec_of(AgentEnvelope, DATA)
    sample = spec.sample()
    body = bytearray()
    for name, field_codec in spec.fields:
        if name == "source":
            body += wire.U32._struct.pack(declared)
            body += wire.U32._struct.pack(len(blob))
            body += blob
        else:
            field_codec.pack(getattr(sample, name), body)
    header = DATA.header.pack(
        DATA.magic, wire.WIRE_FORMAT_VERSION, spec.type_id, len(body)
    )
    return header + bytes(body)


def test_compressed_source_bomb_inflates_no_further_than_declared():
    """A ~64 KB frame declaring a 10-byte source that inflates to 64 MiB
    is rejected after inflating at most 11 bytes."""
    frame = _bomb_frame(declared=10, inflated=64 << 20)
    assert len(frame) < DATA.max_frame_bytes
    tracemalloc.start()
    try:
        with pytest.raises(WireDecodeError, match="inflated"):
            decode_message(frame)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_sourced_envelope_frame_beats_naive_source_bytes():
    """The whole point of COMPRESSED_SOURCE: class text travels deflated."""
    spec = spec_of(AgentEnvelope, DATA)
    envelope = spec.sample().with_source("def run(self, node):\n    pass\n" * 50)
    frame = encode_message(envelope)
    assert len(frame) < len(envelope.source.encode())


# ---------------------------------------------------------------------------
# Answers
# ---------------------------------------------------------------------------


def _answer(serial: int) -> AnswerMessage:
    origin = BPID("10.0.0.1", 7)
    return AnswerMessage(
        query_id=QueryId(origin, serial),
        responder=BPID("10.0.0.2", 9),
        responder_address=IPAddress("10.0.4.9"),
        hops=1,
        items=(
            AnswerItem(rid=RecordId(serial, 0), keywords=("k",), size=4, payload=b"data"),
        ),
    )


def _field_strategy(field_codec) -> st.SearchStrategy:
    """Like test_codec._strategy_for, plus the data-plane address field."""
    if field_codec is wire.ADDRESS_CODEC:
        return st.builds(IPAddress, st.text(max_size=16))
    return _strategy_for(field_codec)


def _tag_one_answer_frame() -> bytes:
    """An answer frame whose address is a tag-1 ``(host, port)`` pair."""
    answer = _answer(1)
    frame = encode_message(answer)
    simulated = bytearray()
    wire.ADDRESS_CODEC.pack(answer.responder_address, simulated)
    assert frame.count(simulated) == 1
    tagged = bytearray(b"\x01")
    wire.STR.pack("127.0.0.1", tagged)
    wire.U16.pack(45301, tagged)
    body = frame[DATA.header.size :].replace(simulated, tagged)
    return DATA.header.pack(*DATA.header.unpack_from(frame)[:3], len(body)) + body


def test_tag_one_address_is_a_counted_decode_error():
    """Tag 0 is the only address shape: any other tag is a malformed
    frame, which a simulated host drops and counts and then keeps serving."""
    frame = _tag_one_answer_frame()
    with pytest.raises(WireDecodeError, match="address tag"):
        decode_message(frame)

    sim = Simulator()
    network = Network(sim, tracer=Tracer())
    alice, bob = network.create_host("alice"), network.create_host("bob")
    received = []
    bob.bind(PROTO_ANSWER, lambda packet: received.append(packet.payload))
    bob._receive(
        Packet(
            src=alice.address,
            dst=bob.address,
            protocol=PROTO_ANSWER,
            wire_size=len(frame) + PACKET_OVERHEAD_BYTES,
            sent_at=sim.now,
            raw=frame,
        )
    )
    sim.run()
    assert received == []
    assert network.drops_by_reason["decode-error"] == 1

    alice.send(bob.address, PROTO_ANSWER, _answer(2))
    sim.run()
    assert received == [_answer(2)]
    assert network.drops_by_reason["decode-error"] == 1


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data_=st.data())
def test_answer_round_trip_property(data_):
    """Arbitrary field values, byte-exact round trip."""
    fields = {name: _field_strategy(codec) for name, codec in ANSWER_FIELDS}
    answer = data_.draw(
        st.fixed_dictionaries(fields).map(lambda kw: AnswerMessage(**kw)),
        label="answer",
    )
    frame = encode_message(answer)
    assert frame[0] == DATA.magic
    assert decode_message(frame) == answer
    assert encode_message(answer) == frame


# ---------------------------------------------------------------------------
# Top-k frames (0x1007 ScoredAnswer, 0x1008 TopKDigest)
# ---------------------------------------------------------------------------


def test_topk_frames_registered():
    from repro.agents.topk import ScoredAnswer, TopKDigest

    assert spec_for_id(0x1007).cls is ScoredAnswer
    assert spec_for_id(0x1008).cls is TopKDigest


def test_topk_frames_round_trip_scores_exactly():
    """TF scores are small-integer ratios; the F64 field must round-trip
    them bit-exactly or merge tie-breaks would drift across the wire."""
    from repro.agents.topk import _sample_scored_answer, _sample_topk_digest

    for sample in (_sample_scored_answer(), _sample_topk_digest()):
        frame = encode_message(sample)
        assert frame[0] == DATA.magic
        decoded = decode_message(frame)
        assert decoded == sample
        assert encode_message(decoded) == frame
