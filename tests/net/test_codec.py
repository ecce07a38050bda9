"""Wire codec: the control-plane conformance battery, the registry, and
hypothesis round-trip properties over every registered control message."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import WireCodecError, WireDecodeError, WireEncodeError
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

from .conformance import CONTROL_SPECS, CodecConformance, spec_of


class TestRegisteredMessageConformance(CodecConformance):
    """The full battery over every registered control message."""

    plane = CONTROL


# ---------------------------------------------------------------------------
# Decoder edge cases not tied to one spec
# ---------------------------------------------------------------------------


def _header(magic=CONTROL.magic, version=WIRE_FORMAT_VERSION, type_id=0x0101) -> bytes:
    return struct.pack(">BBH", magic, version, type_id)


def test_empty_frame_raises():
    with pytest.raises(WireDecodeError, match="shorter than a header"):
        decode_message(b"")


def test_short_header_raises():
    with pytest.raises(WireDecodeError, match="shorter than a header"):
        decode_message(_header()[:3])


def test_bad_magic_raises():
    with pytest.raises(WireDecodeError, match="magic"):
        decode_message(_header(magic=0x1F) + b"\x00" * 8)


def test_unknown_type_id_raises():
    assert spec_for_id(0x7F7F) is None
    with pytest.raises(WireDecodeError, match="unknown message type id"):
        decode_message(_header(type_id=0x7F7F))


def test_unsupported_version_names_both_versions():
    with pytest.raises(WireDecodeError) as excinfo:
        decode_message(_header(version=WIRE_FORMAT_VERSION + 1) + b"\x00" * 8)
    assert str(WIRE_FORMAT_VERSION) in str(excinfo.value)
    assert str(WIRE_FORMAT_VERSION + 1) in str(excinfo.value)


# ---------------------------------------------------------------------------
# Registry rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _Probe:
    token: int


@pytest.fixture
def scratch_registry(monkeypatch):
    """Run registry mutations against a copy of the global tables."""
    monkeypatch.setattr(wire, "_BY_ID", dict(wire._BY_ID))
    monkeypatch.setattr(wire, "_BY_CLASS", dict(wire._BY_CLASS))


def test_register_rejects_out_of_range_ids(scratch_registry):
    for bad in (0, -1, 0x1_0000):
        with pytest.raises(WireCodecError, match="outside u16 range"):
            wire.register(
                _Probe, bad, (("token", wire.I64),), sample=lambda: _Probe(1)
            )


def test_register_rejects_duplicate_id_for_different_class(scratch_registry):
    taken = registered_specs()[0].type_id
    with pytest.raises(WireCodecError, match="already registered"):
        wire.register(
            _Probe, taken, (("token", wire.I64),), sample=lambda: _Probe(1)
        )


def test_register_same_class_again_is_a_refresh(scratch_registry):
    spec = wire.register(
        _Probe, 0x7F01, (("token", wire.I64),), sample=lambda: _Probe(1)
    )
    again = wire.register(
        _Probe, 0x7F01, (("token", wire.I64),), sample=lambda: _Probe(1)
    )
    assert spec_for_id(0x7F01) is again
    assert wire._BY_CLASS[_Probe] == (again,)
    assert spec.type_id == again.type_id


def test_registered_specs_are_sorted_and_unique():
    specs = registered_specs()
    ids = [spec.type_id for spec in specs]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)
    # a class registers at most once per plane
    assert len({(spec.cls, spec.plane) for spec in specs}) == len(specs)


def test_retired_type_ids_stay_unused():
    """0x0403 / 0x0404 (Gnutella PING / PONG) and 0x1002 (batched
    answers) are retired: a new type must not reuse them."""
    assert {0x0403, 0x0404, 0x1002}.isdisjoint(
        spec.type_id for spec in registered_specs()
    )


def test_lookup_round_trips_with_spec_for_id():
    for spec in registered_specs():
        assert spec in wire._BY_CLASS[spec.cls]
        assert spec_for_id(spec.type_id) is spec


def test_unregistered_class_encode_raises():
    with pytest.raises(WireEncodeError, match="not registered"):
        encode_message({"not": "registered"})
    assert dict not in wire._BY_CLASS


def test_field_overflow_raises_a_typed_encode_error():
    from repro.liglo.messages import Ping

    oversized = Ping(token=2**70)  # does not fit i64
    with pytest.raises(WireEncodeError, match="does not fit"):
        encode_message(oversized)


def test_non_compactable_instance_declines_compact_path(scratch_registry):
    from repro.agents.envelope import AgentEnvelope

    spec = spec_of(AgentEnvelope)
    sourced = spec.sample().with_source("class Probe:\n    pass\n")
    assert not spec.when(sourced)
    assert spec.when(spec.sample())
    # the class's next spec takes it: a sourced envelope rides the data plane
    assert encode_message(sourced)[0] == DATA.magic
    # with no spec taking the instance, encoding raises
    wire.register(
        _Probe, 0x7F02, (("token", wire.I64),), sample=lambda: _Probe(1),
        when=lambda probe: probe.token > 0,
    )
    with pytest.raises(WireEncodeError, match="takes this instance"):
        encode_message(_Probe(-1))
    assert decode_message(encode_message(_Probe(1))) == _Probe(1)


# ---------------------------------------------------------------------------
# Hypothesis: round trip over the whole value space, not just samples
# ---------------------------------------------------------------------------


def _strategy_for(field_codec) -> st.SearchStrategy:
    """A value strategy matching one field codec's domain."""
    if field_codec is wire.U8:
        return st.integers(0, 0xFF)
    if field_codec is wire.U16:
        return st.integers(0, 0xFFFF)
    if field_codec is wire.U32:
        return st.integers(0, 0xFFFF_FFFF)
    if field_codec is wire.I32:
        return st.integers(-(2**31), 2**31 - 1)
    if field_codec is wire.I64:
        return st.integers(-(2**63), 2**63 - 1)
    if field_codec is wire.F64:
        return st.floats(allow_nan=False)
    if field_codec is wire.BOOL:
        return st.booleans()
    if field_codec is wire.STR:
        return st.text(max_size=48)
    if field_codec is wire.BYTES:
        return st.binary(max_size=96)
    if isinstance(field_codec, wire._Optional):
        return st.none() | _strategy_for(field_codec.inner)
    if isinstance(field_codec, wire._Seq):
        return st.lists(_strategy_for(field_codec.inner), max_size=4).map(tuple)
    if isinstance(field_codec, wire._Pair):
        return st.tuples(
            _strategy_for(field_codec.first), _strategy_for(field_codec.second)
        )
    if isinstance(field_codec, wire._Composite):
        return st.builds(
            field_codec.build,
            *[_strategy_for(inner) for _attr, inner in field_codec.attrs],
        )
    raise AssertionError(f"no strategy for field codec {field_codec.name!r}")


def _message_strategy(spec) -> st.SearchStrategy:
    fields = {name: _strategy_for(codec) for name, codec in spec.fields}
    return st.fixed_dictionaries(fields).map(lambda kw: spec.cls(**kw)).filter(
        lambda message: spec.when is None or spec.when(message)
    )


@pytest.mark.parametrize(
    "spec", CONTROL_SPECS, ids=lambda s: s.name.removeprefix("repro.")
)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_round_trip_property(spec, data):
    message = data.draw(_message_strategy(spec), label=spec.name)
    frame = encode_message(message)
    assert frame[0] == CONTROL.magic
    assert decode_message(frame) == message
    # Encoding is a pure function of the value.
    assert encode_message(message) == frame


@pytest.mark.parametrize(
    "spec", CONTROL_SPECS, ids=lambda s: s.name.removeprefix("repro.")
)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_truncation_property(spec, data):
    """Any strict prefix of any valid frame is rejected, whatever the value."""
    message = data.draw(_message_strategy(spec), label=spec.name)
    frame = encode_message(message)
    keep = data.draw(st.integers(0, len(frame) - 1), label="keep")
    with pytest.raises(WireDecodeError):
        decode_message(frame[:keep])
