"""Parse-once decode (``MessageSpec.memo``): receivers of equal frames of
either plane share one deeply immutable message, agent state is thawed
per execution, the decoder stays strict, each memo stays within its
plane's capacity, and a flood really does parse only one frame per hop
depth."""

from __future__ import annotations

import copy
import pickle
import sys
import threading
import time
import zlib
from dataclasses import dataclass, is_dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BestPeerConfig, build_network, random_graph
from repro.agents.agent import Agent
from repro.agents.engine import PROTO_AGENT
from repro.agents.envelope import AgentEnvelope, freeze_state
from repro.agents.messages import AnswerItem, AnswerMessage
from repro.errors import WireCodecError, WireDecodeError
from repro.ids import AgentId, QueryId
from repro.liglo.messages import RegisterRequest
from repro.net import codec as wire
from repro.net.codec import (
    CONTROL,
    DATA,
    decode_message,
    encode_message,
    registered_specs,
    spec_for_id,
)
from repro.net.faults import FrameFaultInjector
from repro.net.message import PACKET_OVERHEAD_BYTES, Packet

from tests.agents.helpers import AgentRig

from .conformance import CONTROL_SPECS, DATA_SPECS, CodecConformance, spec_of
from .test_codec import _Probe, scratch_registry  # noqa: F401  (fixture)

ENVELOPE_SPEC = spec_of(AgentEnvelope)
SOURCED_ENVELOPE_SPEC = spec_of(AgentEnvelope, DATA)
#: every spec, on both planes
MEMOISED_SPECS = CONTROL_SPECS + DATA_SPECS


def _spec_id(spec) -> str:
    name = spec.name.removeprefix("repro.")
    return name if spec.plane is CONTROL else f"{name}@data"


@pytest.fixture(autouse=True)
def empty_memos():
    """Each test starts cold, whatever earlier tests decoded."""
    for spec in registered_specs():
        spec.memo.clear()
    wire._CompressedSource._inflated.clear()


def _counters() -> tuple[int, int]:
    return wire.decode_memo_hits, wire.decode_memo_misses


def _with_serial(value, serial: int):
    """``value`` with its first int or str field, searched depth-first
    through frozen dataclasses, set from ``serial``: one distinct, valid
    message per serial."""
    for name in value.__dataclass_fields__:
        inner = getattr(value, name)
        if type(inner) is int:
            return replace(value, **{name: serial})
        if type(inner) is str:
            return replace(value, **{name: f"{inner}-{serial}"})
        if is_dataclass(inner):
            return replace(value, **{name: _with_serial(inner, serial)})
    raise AssertionError(f"nothing in {value!r} to vary")


# ---------------------------------------------------------------------------
# Sharing: equal frames, one frozen message
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", MEMOISED_SPECS, ids=_spec_id)
def test_equal_frames_decode_to_the_same_object(spec):
    frame = encode_message(spec.sample())
    hits, misses = _counters()
    first, second = decode_message(frame), decode_message(frame)
    assert _counters() == (hits + 1, misses + 1)
    assert first == spec.sample()
    assert first is second


@pytest.mark.parametrize("spec", MEMOISED_SPECS, ids=_spec_id)
def test_two_decodes_are_equal_but_distinct_objects(spec):
    """...when the frame is not ``bytes``: a bytearray can change under a
    memo key, so it is parsed, and its message built, on every call."""
    frame = bytearray(encode_message(spec.sample()))
    first, second = decode_message(frame), decode_message(frame)
    assert first == second == spec.sample()
    assert first is not second


class _Unpickled(BaseException):
    """Escapes every ``except Exception`` between the decoder and the test."""


def test_decoding_never_unpickles(monkeypatch):
    """Peer bytes are unpickled only by the agent engine's one thaw call,
    never by the codec (a corrupt blob once cost ~1.4 GB inside decode)."""

    def refuse(*_args, **_kwargs):
        raise _Unpickled("decode_message unpickled a frame's bytes")

    monkeypatch.setattr(pickle, "loads", refuse)
    monkeypatch.setattr(pickle, "Unpickler", refuse)
    for spec in registered_specs():
        frame = encode_message(spec.sample())
        assert decode_message(frame) == spec.sample()


class _Unfrozen(wire.FieldCodec):
    """A field codec that never declared itself immutable (the default)."""

    name = "unfrozen"


def test_register_refuses_a_mutable_field(scratch_registry):
    with pytest.raises(WireCodecError, match="mutable"):
        wire.register(
            _Probe, 0x7F21, (("token", _Unfrozen()),), sample=lambda: _Probe(1)
        )
    with pytest.raises(WireCodecError, match="mutable"):
        wire.register(
            _Probe, 0x7F21, (("token", wire.opt(_Unfrozen())),), sample=lambda: _Probe(1)
        )
    assert spec_for_id(0x7F21) is None and _Probe not in wire._BY_CLASS


def test_register_refuses_a_message_class_that_can_be_assigned_to(scratch_registry):
    @dataclass
    class Thawed:
        token: int

    with pytest.raises(WireCodecError, match="frozen"):
        wire.register(Thawed, 0x7F22, (("token", wire.I64),), sample=lambda: Thawed(1))
    assert spec_for_id(0x7F22) is None


def test_combinators_derive_mutability_from_their_inners():
    assert wire.FieldCodec.yields_mutable  # an unknown codec is never shared
    leaves = (wire.U8, wire.I64, wire.F64, wire.BOOL, wire.STR, wire.BYTES)
    # an IPAddress is a frozen dataclass over a str; a source is a str
    for leaf in leaves + (wire.ADDRESS_CODEC, wire.COMPRESSED_SOURCE):
        assert not leaf.yields_mutable
        assert not wire.opt(leaf).yields_mutable
        assert not wire.seq(wire.pair(leaf, wire.BPID_CODEC)).yields_mutable
    blob = _Unfrozen()
    assert blob.yields_mutable
    assert wire.opt(blob).yields_mutable and wire.seq(blob).yields_mutable
    assert wire.pair(wire.STR, blob).yields_mutable
    assert wire.pair(blob, wire.STR).yields_mutable
    assert wire.composite("holder", (("token", blob),), _Probe).yields_mutable

    @dataclass
    class Thawed:
        token: int

    # immutable fields, but the built object itself can be assigned to
    assert wire.composite("thawed", (("token", wire.I64),), Thawed).yields_mutable
    assert not wire.composite("probe", (("token", wire.I64),), _Probe).yields_mutable


def test_shared_values_are_frozen_all_the_way_down():
    """Every message a memo holds is a frozen dataclass over str / int /
    float / bool / bytes / None, tuples of such, or frozen dataclasses of
    such."""

    def assert_frozen(value, where):
        if value is None or type(value) in (str, int, float, bool, bytes):
            return
        if type(value) is tuple:
            for item in value:
                assert_frozen(item, where)
            return
        assert is_dataclass(value) and value.__dataclass_params__.frozen, where
        for name in value.__dataclass_fields__:
            assert_frozen(getattr(value, name), where)

    for spec in MEMOISED_SPECS:
        frame = encode_message(spec.sample())
        message = decode_message(frame)
        assert spec.memo[frame] is message
        assert_frozen(message, spec.name)


def _kilobyte_answer() -> AnswerMessage:
    sample = spec_of(AnswerMessage, DATA).sample()
    payload = bytes(range(256)) * 4
    item = AnswerItem(rid=sample.items[0].rid, keywords=("k",), size=len(payload), payload=payload)
    return replace(sample, items=(item,) + sample.items)


def _sourced_envelope() -> AgentEnvelope:
    return SOURCED_ENVELOPE_SPEC.sample().with_source("def run(self, node):\n    pass\n" * 40)


def test_envelopes_shipping_one_class_share_one_source_string():
    envelope = _sourced_envelope()
    first = decode_message(encode_message(envelope))
    second = decode_message(encode_message(_with_serial(envelope, 7)))
    assert first != second and first.source == envelope.source
    assert first.source is second.source  # inflated once


@pytest.mark.parametrize(
    "message", (_kilobyte_answer(), _sourced_envelope()), ids=("answer", "sourced-envelope")
)
def test_a_warm_data_decode_matches_a_cold_one_field_for_field(message):
    frame = encode_message(message)
    assert frame[0] == DATA.magic
    cold = decode_message(bytearray(frame))  # parsed, never stored
    warm = decode_message(frame)
    assert warm is decode_message(frame)  # served from the memo
    assert cold is not warm
    for name in message.__dataclass_fields__:
        assert getattr(cold, name) == getattr(warm, name) == getattr(message, name), name


def test_a_one_byte_flipped_twin_of_a_memoised_data_frame_is_rejected_and_not_stored():
    spec = SOURCED_ENVELOPE_SPEC
    envelope = _sourced_envelope()
    frame = encode_message(envelope)
    assert decode_message(frame) == envelope and frame in spec.memo
    blob = zlib.compress(envelope.source.encode(), 6)
    at = frame.index(blob) + len(blob) - 1  # the stream's Adler-32 check
    twins = [
        frame[:at] + bytes([frame[at] ^ 0x01]) + frame[at + 1 :],
        FrameFaultInjector(seed=0).bit_flip(frame, position=len(frame) - 1, bit=0),
    ]
    inflated = dict(wire._CompressedSource._inflated)
    for twin in twins:
        for _attempt in range(2):
            with pytest.raises(WireDecodeError):
                decode_message(twin)
        assert all(twin not in other.memo for other in registered_specs())
    assert list(spec.memo) == [frame]
    assert wire._CompressedSource._inflated == inflated
    answer = encode_message(_kilobyte_answer())
    decode_message(answer)
    tag = answer.index(b"\x00\x00\x0810.0.4.9")  # the address tag byte
    twin = answer[:tag] + b"\x01" + answer[tag + 1 :]
    with pytest.raises(WireDecodeError, match="address tag"):
        decode_message(twin)
    assert list(spec_of(AnswerMessage, DATA).memo) == [answer]


_plain = st.integers() | st.text(max_size=8) | st.booleans() | st.none() | st.binary(max_size=8)
_nested = st.recursive(
    _plain,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=60, deadline=None)
@given(extra=st.dictionaries(st.text(max_size=6), _nested, max_size=3), ttl=st.integers(0, 30))
def test_mutating_one_receivers_state_reaches_no_other(extra, ttl):
    """Receivers share the envelope; each execution thaws its own state."""
    state = {**extra, "trail": [["origin"]], "box": {"seen": [1, 2]}}
    envelope = replace(ENVELOPE_SPEC.sample(), state=freeze_state(state), ttl=ttl)
    pristine = copy.deepcopy(state)
    frame = encode_message(envelope)
    first, second = decode_message(frame), decode_message(frame)
    assert first is second and first == envelope
    mine, theirs = first.thaw(), second.thaw()
    assert mine is not theirs
    mine["scribble"] = "top level"
    del mine["box"]
    mine["trail"][0].append("nested")
    theirs["trail"].append(["another receiver"])
    assert decode_message(frame).thaw() == pristine == state
    assert theirs == {**pristine, "trail": [["origin"], ["another receiver"]]}


class ScribblingAgent(Agent):
    """Appends to a list nested in its travelling state, then reports the
    list, as this host sees it, as the keywords of one answer item."""

    def __init__(self):
        self.trail = {"visits": [["origin"]]}

    def execute(self, context):
        from repro.agents.messages import AnswerItem
        from repro.storm.heapfile import RecordId

        self.trail["visits"][0].append(str(context.host_id))
        visits = tuple(self.trail["visits"][0])
        context.reply([AnswerItem(rid=RecordId(0, 0), keywords=visits, size=0)])


def test_fan_out_of_one_frame_gives_every_host_pristine_state():
    rig = AgentRig()
    hub = rig.add("hub")
    leaves = [rig.add(name) for name in ("x", "y", "z")]
    for leaf in leaves:
        rig.link(hub, leaf)
    hub.dispatch(ScribblingAgent())  # ships the class: sourced, not compact
    rig.sim.run()
    hub.answers.clear()
    hits, misses = _counters()
    hub.dispatch(ScribblingAgent())  # state-only: one frame, three packets
    rig.sim.run()
    # the envelope is parsed once for three hosts; the three answers differ
    assert _counters() == (hits + 2, misses + 1 + 3)
    reports = [answer.items[0].keywords for answer in hub.answers]
    assert sorted(report[1] for report in reports) == sorted(
        str(leaf.bpid) for leaf in leaves
    )
    # exactly what three independent decodes give: nobody saw a neighbour's append
    assert all(len(report) == 2 for report in reports)
    assert all(report[0] == "origin" for report in reports)


def test_corrupt_state_is_a_counted_drop_and_a_good_copy_still_runs():
    """The compact frame decodes (state is opaque bytes); the engine's thaw
    raises before the agent is marked seen or any clone leaves."""
    rig = AgentRig()
    hub, leaf, tail = rig.line("hub", "leaf", "tail")
    hub.dispatch(ScribblingAgent())  # ships the class to leaf and tail
    rig.sim.run()
    assert len(hub.answers) == 2
    envelope = AgentEnvelope(
        agent_id=AgentId(hub.bpid, 99),
        class_name=ScribblingAgent.__name__,
        source=None,
        state=freeze_state(ScribblingAgent().get_state()),
        ttl=3,
        hops=1,
        initiator=hub.bpid,
        initiator_address=hub.host.address,
        query_id=QueryId(hub.bpid, 99),
    )
    frame = encode_message(envelope)
    stop = frame.index(envelope.state) + len(envelope.state) - 1  # pickle STOP
    corrupt = FrameFaultInjector(seed=0).bit_flip(frame, position=stop, bit=0)
    assert decode_message(corrupt).state != envelope.state
    executed, sent = leaf.engine.agents_executed, leaf.host.messages_sent
    relayed = tail.engine.agents_executed

    def deliver(raw: bytes) -> None:
        leaf.host._receive(
            Packet(
                src=hub.host.address,
                dst=leaf.host.address,
                protocol=PROTO_AGENT,
                wire_size=len(raw) + PACKET_OVERHEAD_BYTES,
                sent_at=rig.sim.now,
                raw=raw,
            )
        )
        rig.sim.run()

    deliver(corrupt)
    assert rig.network.decode_errors == 1
    assert rig.network.drops_by_reason["decode-error"] == 1
    assert leaf.engine.agents_executed == executed
    assert leaf.host.messages_sent == sent  # nothing forwarded to tail
    deliver(frame)
    assert rig.network.decode_errors == 1
    assert leaf.engine.agents_executed == executed + 1
    assert tail.engine.agents_executed == relayed + 1  # its clone went on
    assert len(hub.answers) == 4


# ---------------------------------------------------------------------------
# Robustness: the strict decoder, seen through a warm memo
# ---------------------------------------------------------------------------


class TestConformanceThroughAWarmMemo(CodecConformance):
    """The whole malformed-frame battery, against frames whose valid form
    is memoised, on both planes: a corruption one bit away from a hit is
    still rejected."""

    def pytest_generate_tests(self, metafunc):
        if "spec" in metafunc.fixturenames:
            metafunc.parametrize("spec", MEMOISED_SPECS, ids=_spec_id)

    @pytest.fixture
    def frame(self, spec) -> bytes:
        frame = encode_message(spec.sample())
        decode_message(frame)
        assert frame in spec.memo
        return frame


@pytest.mark.parametrize("spec", MEMOISED_SPECS, ids=_spec_id)
def test_failing_frames_are_never_stored(spec):
    frame = encode_message(spec.sample())
    decode_message(frame)
    injector = FrameFaultInjector(seed=1)
    for _round in range(25):
        for fault in injector.faults().values():
            corrupted = fault(frame)
            try:
                decode_message(corrupted)
            except WireDecodeError:
                assert all(corrupted not in other.memo for other in registered_specs())
            else:  # a self-consistent bit flip: a valid frame of some type
                owner = spec_for_id(int.from_bytes(corrupted[2:4], "big"))
                assert corrupted in owner.memo
    assert decode_message(frame) == spec.sample()


@dataclass(frozen=True, slots=True)
class _Picky:
    token: int

    def __post_init__(self):
        if self.token < 0:
            raise ValueError("negative token")


def test_constructor_failure_stays_wrapped_and_unstored(scratch_registry):
    spec = wire.register(_Picky, 0x7F11, (("token", wire.I64),), sample=lambda: _Picky(1))
    good = encode_message(_Picky(5))
    assert decode_message(good) == _Picky(5)
    bad = good[: wire.HEADER_SIZE] + wire.I64._struct.pack(-5)
    for _attempt in range(2):
        with pytest.raises(WireDecodeError, match="cannot construct"):
            decode_message(bad)
    assert list(spec.memo) == [good]


def test_ten_thousand_distinct_frames_leave_every_memo_bounded():
    spec = spec_of(RegisterRequest)
    largest = 0
    for token in range(10_000):
        assert decode_message(encode_message(RegisterRequest(token=token))).token == token
        largest = max(largest, len(spec.memo))
    assert largest == CONTROL.memo_capacity
    assert all(len(other.memo) <= other.plane.memo_capacity for other in registered_specs())


@pytest.mark.parametrize("spec", MEMOISED_SPECS, ids=_spec_id)
def test_a_memo_fills_to_its_plane_capacity_and_no_further(spec):
    capacity = spec.plane.memo_capacity
    largest = 0
    for serial in range(2 * capacity + 1):
        message = _with_serial(spec.sample(), serial)
        assert decode_message(encode_message(message)) == message
        largest = max(largest, len(spec.memo))
    assert largest == capacity
    assert len(spec.memo) == 1  # cleared when full, not aged


@pytest.mark.parametrize("spec", MEMOISED_SPECS, ids=_spec_id)
@pytest.mark.parametrize("buffer", (bytearray, memoryview))
def test_other_buffers_decode_and_are_not_stored(spec, buffer):
    frame = encode_message(spec.sample())
    hits, _misses = _counters()
    assert decode_message(buffer(frame)) == spec.sample()
    assert not spec.memo
    decode_message(frame)  # now memoised: a buffer of the same bytes still parses
    assert decode_message(buffer(frame)) == spec.sample()
    assert wire.decode_memo_hits == hits
    assert list(spec.memo) == [frame]


def test_a_bytes_subclass_is_not_looked_up():
    class Tagged(bytes):
        pass

    spec = registered_specs()[0]
    frame = encode_message(spec.sample())
    assert decode_message(Tagged(frame)) == spec.sample()
    assert not spec.memo


def test_reregistering_a_type_id_drops_its_memo(scratch_registry):
    wire.register(_Probe, 0x7F01, (("token", wire.I64),), sample=lambda: _Probe(1))
    frame = encode_message(_Probe(7))
    assert decode_message(frame) == decode_message(frame) == _Probe(7)
    assert frame in spec_for_id(0x7F01).memo
    relaid = wire.register(_Probe, 0x7F01, (("token", wire.I32),), sample=lambda: _Probe(1))
    assert not relaid.memo
    with pytest.raises(WireDecodeError, match="trailing"):  # not the stale parse
        decode_message(frame)


def test_concurrent_decoders_keep_the_memo_bounded():
    """Live endpoints decode on one thread per connection; without the
    lock around check-then-insert this overshoots within a second."""
    spec = spec_of(RegisterRequest)
    frames = [encode_message(RegisterRequest(token=token)) for token in range(2_000)]
    deadline = time.monotonic() + 0.75
    overflow, wrong = [], []

    def worker(index: int) -> None:
        while time.monotonic() < deadline:
            index = (index + 1) % len(frames)
            if decode_message(frames[index]).token != index:
                wrong.append(index)
            if len(spec.memo) > CONTROL.memo_capacity:
                overflow.append(len(spec.memo))

    threads = [threading.Thread(target=worker, args=(250 * n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong and not overflow


# ---------------------------------------------------------------------------
# The traffic claim: a flood parses one frame per hop depth
# ---------------------------------------------------------------------------


def test_flood_parses_one_frame_per_hop_depth():
    nodes = 100
    topology = random_graph(nodes, degree=4, seed=5)
    config = BestPeerConfig(max_direct_peers=16, strategy="static", ttl=24)
    deployment = build_network(nodes, config=config, topology=topology)
    deployment.nodes[3].share(["needle"], b"a" * 68)
    deployment.nodes[nodes - 1].share(["needle"], b"b" * 68)
    base, network = deployment.base, deployment.network

    def flood():
        handle = base.issue_query("needle")
        deployment.sim.run()
        base.finish_query(handle)
        return handle

    flood()  # ships the agent class; later floods are state-only compact frames
    depth, frontier, seen = 0, {0}, {0}
    while frontier:  # hop distance of the farthest node from the base
        frontier = {n for f in frontier for n in topology.neighbors(f)} - seen
        seen |= frontier
        depth += bool(frontier)
    for _flood in range(2):  # the second starts from a memo the first filled
        hits, misses = _counters()
        delivered = network.packets_delivered
        handle = flood()
        answers = len(handle.answers)
        assert answers == 2
        # every delivered frame is counted, the two distinct answers too
        delivered = network.packets_delivered - delivered
        gained_hits, gained_misses = (now - then for now, then in zip(_counters(), (hits, misses)))
        assert gained_hits + gained_misses == delivered > 2 * nodes
        assert 1 + answers <= gained_misses <= depth + 2 + answers
