"""Pack-once encode (``MessageSpec.frames``), the mirror of the decode
memo: equal messages of a spec whose fields pack by value share one
frame object, byte-for-byte what packing them gives; a float field opts
its spec out; a message that fails to pack, or cannot be hashed, is
refused and never stored; and each memo stays within its plane's
capacity, across re-registration and threads."""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, is_dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.topk import ScoredAnswer, TopKDigest
from repro.core.shipping import DataReply
from repro.errors import WireEncodeError
from repro.liglo.messages import RegisterRequest
from repro.net import codec as wire
from repro.net.codec import (
    CONTROL,
    DATA,
    WIRE_FORMAT_VERSION,
    decode_message,
    encode_message,
    registered_specs,
    spec_for_id,
)

from .conformance import spec_of
from .test_codec import _Probe, scratch_registry  # noqa: F401  (fixture)
from .test_decode_memo import _spec_id, _with_serial
from .test_message_codec import _refused_at_send

#: every spec that keys its frames by message, on both planes
MEMOISED_SPECS = tuple(spec for spec in registered_specs() if spec.frames is not None)
#: the specs with a float field: equal scores can pack apart
FLOAT_SPECS = (spec_of(ScoredAnswer, DATA), spec_of(TopKDigest, DATA))


@pytest.fixture(autouse=True)
def empty_memos():
    """Each test starts cold, whatever earlier tests encoded."""
    for spec in MEMOISED_SPECS:
        spec.frames.clear()


def _cold_frame(spec, message) -> bytes:
    """``message``'s frame packed field by field, past every memo."""
    body = bytearray()
    wire.pack_fields(spec.fields, message, body)
    if spec.plane is CONTROL:
        header = CONTROL.header.pack(CONTROL.magic, WIRE_FORMAT_VERSION, spec.type_id)
    else:
        header = DATA.header.pack(DATA.magic, WIRE_FORMAT_VERSION, spec.type_id, len(body))
    return header + bytes(body)


def _replaced_leaf(value, kind: type, new):
    """``value`` with its first ``kind`` leaf, searched depth-first through
    frozen dataclasses and tuples, replaced by ``new`` (None: no such leaf)."""
    if type(value) is kind:
        return new
    if type(value) is tuple:
        for at, item in enumerate(value):
            changed = _replaced_leaf(item, kind, new)
            if changed is not None:
                return value[:at] + (changed,) + value[at + 1 :]
    elif is_dataclass(value):
        for name in value.__dataclass_fields__:
            changed = _replaced_leaf(getattr(value, name), kind, new)
            if changed is not None:
                return replace(value, **{name: changed})
    return None


def _with_a_list(value):
    """``value`` with its first tuple field turned into a list (None when
    it has none)."""
    for name in value.__dataclass_fields__:
        inner = getattr(value, name)
        if type(inner) is tuple:
            return replace(value, **{name: list(inner)})
    return None


#: every memoised spec whose sample has a tuple field to turn into a list
LISTABLE_SPECS = tuple(spec for spec in MEMOISED_SPECS if _with_a_list(spec.sample()))


def test_both_planes_are_memoised_and_only_floats_opt_out():
    planes = {spec.plane for spec in MEMOISED_SPECS}
    assert planes == {CONTROL, DATA}
    opted_out = [spec for spec in registered_specs() if spec.frames is None]
    assert {spec.name for spec in opted_out} == {
        "repro.agents.topk.ScoredAnswer",
        "repro.agents.topk.TopKDigest",
    }


# ---------------------------------------------------------------------------
# Sharing: equal messages, one frame object
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", MEMOISED_SPECS, ids=_spec_id)
def test_equal_messages_built_apart_get_one_frame_object(spec):
    first, second = spec.sample(), spec.sample()
    assert first == second and first is not second
    frame = encode_message(first)
    assert encode_message(second) is frame
    assert spec.frames == {first: frame}
    # the receiver's decode memo now finds the frame by identity
    assert decode_message(frame) is decode_message(encode_message(spec.sample()))


@settings(max_examples=150, deadline=None)
@given(spec=st.sampled_from(MEMOISED_SPECS), serial=st.integers(0, 0xFFFF))
def test_a_warm_frame_equals_a_cold_pack_fields_frame(spec, serial):
    message = _with_serial(spec.sample(), serial)
    cold = _cold_frame(spec, message)
    encode_message(message)
    warm = encode_message(_with_serial(spec.sample(), serial))  # equal, not identical
    assert spec.frames[message] is warm
    assert warm == cold
    assert decode_message(warm) == message


# ---------------------------------------------------------------------------
# Exactness: floats opt out
# ---------------------------------------------------------------------------


def test_combinators_derive_packs_by_value_from_their_inners():
    assert not wire.FieldCodec.packs_by_value  # an unknown codec is never keyed
    assert not wire.F64.packs_by_value
    leaves = (wire.U8, wire.U16, wire.U32, wire.I32, wire.I64, wire.BOOL, wire.STR)
    for leaf in leaves + (wire.BYTES, wire.ADDRESS_CODEC, wire.COMPRESSED_SOURCE):
        assert leaf.packs_by_value
        assert wire.opt(leaf).packs_by_value
        assert wire.seq(wire.pair(leaf, wire.BPID_CODEC)).packs_by_value
        assert not wire.pair(leaf, wire.F64).packs_by_value
        assert not wire.pair(wire.F64, leaf).packs_by_value
    assert not wire.opt(wire.F64).packs_by_value and not wire.seq(wire.F64).packs_by_value
    assert not wire.composite("scored", (("token", wire.F64),), _Probe).packs_by_value
    assert wire.composite("probe", (("token", wire.I64),), _Probe).packs_by_value


@pytest.mark.parametrize("spec", FLOAT_SPECS, ids=_spec_id)
def test_minus_zero_and_zero_scores_give_different_frames(spec):
    assert spec.frames is None
    plus = _replaced_leaf(spec.sample(), float, 0.0)
    minus = _replaced_leaf(spec.sample(), float, -0.0)
    assert plus == minus  # equal values ...
    first, second = encode_message(plus), encode_message(minus)
    assert first != second  # ... that pack apart
    assert first == _cold_frame(spec, plus) and second == _cold_frame(spec, minus)


def test_a_float_field_opts_a_registered_type_out(scratch_registry):
    @dataclass(frozen=True, slots=True)
    class Scored:
        score: float

    spec = wire.register(Scored, 0x7F31, (("score", wire.F64),), sample=lambda: Scored(1.0))
    assert spec.frames is None
    assert encode_message(Scored(0.0)) != encode_message(Scored(-0.0))


# ---------------------------------------------------------------------------
# Refusals are never stored
# ---------------------------------------------------------------------------

REFUSED = {
    "overflowing-int": (lambda: RegisterRequest(token=2**64), "does not fit"),
    "over-long-string": (
        lambda: _replaced_leaf(spec_of(DataReply, DATA).sample(), str, "k" * 0x10000),
        "exceeds u16",
    ),
    "over-the-data-cap": (
        lambda: DataReply(token=1, objects=((("big",), b"x" * DATA.max_frame_bytes),)),
        "exceeds",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_an_oversized_or_overflowing_message_raises_and_is_never_stored(case):
    build, match = REFUSED[case]
    for _attempt in range(2):  # the second attempt packs again, and raises again
        with pytest.raises(WireEncodeError, match=match):
            encode_message(build())
    assert not any(spec.frames for spec in MEMOISED_SPECS)


@pytest.mark.parametrize("spec", LISTABLE_SPECS, ids=_spec_id)
def test_an_unhashable_message_raises_at_send_with_nothing_counted(spec):
    listed = _with_a_list(spec.sample())
    _refused_at_send(listed, "unhashable")
    assert not spec.frames


# ---------------------------------------------------------------------------
# Bounds: capacity, re-registration, threads
# ---------------------------------------------------------------------------


def test_ten_thousand_distinct_messages_leave_every_memo_bounded():
    spec = spec_of(RegisterRequest)
    largest = 0
    for token in range(10_000):
        assert decode_message(encode_message(RegisterRequest(token=token))).token == token
        largest = max(largest, len(spec.frames))
    assert largest == CONTROL.memo_capacity
    assert all(len(other.frames) <= other.plane.memo_capacity for other in MEMOISED_SPECS)


@pytest.mark.parametrize("spec", MEMOISED_SPECS, ids=_spec_id)
def test_a_memo_fills_to_its_plane_capacity_and_no_further(spec):
    capacity = spec.plane.memo_capacity
    largest = 0
    for serial in range(2 * capacity + 1):
        message = _with_serial(spec.sample(), serial)
        assert encode_message(message) == _cold_frame(spec, message)
        largest = max(largest, len(spec.frames))
    assert largest == capacity
    assert len(spec.frames) == 1  # cleared when full, not aged


def test_reregistering_a_type_id_drops_its_memo(scratch_registry):
    wire.register(_Probe, 0x7F01, (("token", wire.I64),), sample=lambda: _Probe(1))
    wide = encode_message(_Probe(7))
    assert encode_message(_Probe(7)) is wide
    assert spec_for_id(0x7F01).frames == {_Probe(7): wide}
    relaid = wire.register(_Probe, 0x7F01, (("token", wire.I32),), sample=lambda: _Probe(1))
    assert not relaid.frames
    narrow = encode_message(_Probe(7))  # not the stale frame
    assert len(narrow) == len(wide) - 4
    assert decode_message(narrow) == _Probe(7)


def _hammer(worker, threads: int = 8) -> None:
    """Run ``worker(n)`` on ``threads`` threads with a tiny switch interval."""
    running = [threading.Thread(target=worker, args=(n,)) for n in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in running:
            thread.start()
        for thread in running:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in running)


def test_eight_threads_keep_the_memo_bounded():
    """Live endpoints encode on one thread per connection; without the lock
    around check-then-insert the memo overshoots its capacity."""
    spec = spec_of(RegisterRequest)
    messages = [RegisterRequest(token=token) for token in range(2_000)]
    frames = [_cold_frame(spec, message) for message in messages]
    deadline = time.monotonic() + 0.75
    overflow, wrong = [], []

    def worker(index: int) -> None:
        index *= 250
        while time.monotonic() < deadline:
            index = (index + 1) % len(messages)
            if encode_message(messages[index]) != frames[index]:
                wrong.append(index)
            if len(spec.frames) > CONTROL.memo_capacity:
                overflow.append(len(spec.frames))

    _hammer(worker)
    assert not wrong and not overflow


def test_eight_threads_keep_the_source_cache_bounded():
    cache = wire._CompressedSource._cache
    cache.clear()
    capacity = wire._CompressedSource._CACHE_CAPACITY
    overflow = []

    def worker(index: int) -> None:
        for serial in range(150):
            wire.COMPRESSED_SOURCE.pack(f"# source {index}-{serial}\n", bytearray())
            if len(cache) > capacity:
                overflow.append(len(cache))

    _hammer(worker)
    assert not overflow and len(cache) <= capacity
