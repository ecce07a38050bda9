"""Reusable protocol-conformance battery for the wire codec.

Subclass :class:`CodecConformance` in a test module and every registered
message type of the subclass's ``plane`` is driven through round-trip,
header, truncation, bit-flip, wrong-version, oversize and
trailing-garbage checks; the subclasses in ``test_codec.py`` (control)
and ``test_datacodec.py`` (data) together cover every spec
:func:`~repro.net.codec.registered_specs` returns.  The battery backs
two contracts:

* **round trip** — ``decode(encode(m)) == m`` for every registered
  sample, and encoding is deterministic;
* **strict decode** — every malformation a
  :class:`~repro.net.faults.FrameFaultInjector` can produce either
  raises a typed :class:`~repro.errors.WireDecodeError` or (for body
  bit flips that stay self-consistent) decodes into a *registered*
  message type.  Nothing else may escape the decoder.

Every check goes through the one :func:`~repro.net.codec.decode_message`,
which dispatches on the magic byte.  Both planes share the first four
header bytes (magic, version, u16 type id), which the fixed bit-flip
positions below rely on.
"""

from __future__ import annotations

import pytest

from repro.agents.messages import BatchedAnswers
from repro.errors import WireDecodeError
from repro.net.codec import (
    CONTROL,
    DATA,
    WIRE_FORMAT_VERSION,
    decode_message,
    encode_message,
    registered_specs,
    spec_for_id,
)
from repro.net.faults import FrameFaultInjector


def load_registrations() -> None:
    """Import every module that registers messages.

    Senders register as a side effect of constructing their messages; a
    test that only decodes calls this to make every type id resolvable
    up front.
    """
    import repro.agents.envelope  # noqa: F401
    import repro.agents.messages  # noqa: F401
    import repro.agents.topk  # noqa: F401
    import repro.baselines.client_server  # noqa: F401
    import repro.baselines.gnutella  # noqa: F401
    import repro.core.discovery  # noqa: F401
    import repro.core.sharing  # noqa: F401
    import repro.core.shipping  # noqa: F401
    import repro.liglo.messages  # noqa: F401
    import repro.replication.messages  # noqa: F401


load_registrations()

CONTROL_SPECS = tuple(spec for spec in registered_specs() if spec.plane is CONTROL)
DATA_SPECS = tuple(spec for spec in registered_specs() if spec.plane is DATA)


def spec_of(cls: type, plane=CONTROL):
    """The one spec ``cls`` registered on ``plane``."""
    (spec,) = [s for s in registered_specs() if s.cls is cls and s.plane is plane]
    return spec


def _spec_id(spec) -> str:
    return spec.name.removeprefix("repro.")


def _force(decoded):
    """Fully materialize a decoded message: a lazy batch's deferred
    record corruption must surface as WireDecodeError here."""
    if isinstance(decoded, BatchedAnswers):
        decoded.answers
    return decoded


class CodecConformance:
    """Mixin: parametrizes every test over the registered specs of ``plane``."""

    plane = CONTROL

    def pytest_generate_tests(self, metafunc):
        if "spec" in metafunc.fixturenames:
            specs = [s for s in registered_specs() if s.plane is self.plane]
            metafunc.parametrize("spec", specs, ids=_spec_id)

    @pytest.fixture
    def frame(self, spec) -> bytes:
        return encode_message(spec.sample())

    @pytest.fixture
    def injector(self) -> FrameFaultInjector:
        return FrameFaultInjector(seed=0)

    # -- round trip ---------------------------------------------------------

    def test_sample_round_trips(self, spec, frame):
        assert decode_message(frame) == spec.sample()

    def test_encoding_is_deterministic(self, spec, frame):
        assert encode_message(spec.sample()) == frame

    def test_frame_header(self, spec, frame):
        assert frame[0] == spec.plane.magic
        assert frame[1] == WIRE_FORMAT_VERSION
        assert int.from_bytes(frame[2:4], "big") == spec.type_id

    # -- fault injection ----------------------------------------------------

    def test_every_truncation_raises(self, frame, injector):
        for keep in range(len(frame)):
            with pytest.raises(WireDecodeError):
                _force(decode_message(injector.truncate(frame, keep=keep)))

    def test_magic_and_version_bit_flips_raise(self, frame, injector):
        for position in (0, 1):
            for bit in range(8):
                corrupted = injector.bit_flip(frame, position=position, bit=bit)
                with pytest.raises(WireDecodeError):
                    _force(decode_message(corrupted))

    def test_type_id_bit_flips_raise_or_alias_registered(self, spec, frame, injector):
        # A flipped type id usually misses the registry or mis-parses the
        # body; when the bytes happen to satisfy another layout, the result
        # must still be a *registered* type (never spec.cls itself).
        for position in (2, 3):
            for bit in range(8):
                corrupted = injector.bit_flip(frame, position=position, bit=bit)
                try:
                    decoded = _force(decode_message(corrupted))
                except WireDecodeError:
                    continue
                aliased = spec_for_id(int.from_bytes(corrupted[2:4], "big"))
                assert aliased is not None and aliased.plane is spec.plane
                assert type(decoded) is aliased.cls
                assert aliased.cls is not spec.cls

    def test_body_bit_flips_never_crash(self, spec, frame, injector):
        registered = {s.cls for s in registered_specs()}
        for position in range(spec.plane.header.size, len(frame)):
            for bit in range(8):
                corrupted = injector.bit_flip(frame, position=position, bit=bit)
                try:
                    decoded = _force(decode_message(corrupted))
                except WireDecodeError:
                    continue  # the expected outcome for most flips
                assert spec_for_id(int.from_bytes(corrupted[2:4], "big")) is not None
                assert type(decoded) in registered

    def test_wrong_version_raises(self, frame, injector):
        for version in (0, WIRE_FORMAT_VERSION + 1, 0xFF):
            with pytest.raises(WireDecodeError, match="version"):
                _force(decode_message(injector.wrong_version(frame, version=version)))

    def test_oversized_frame_raises(self, frame, injector):
        with pytest.raises(WireDecodeError, match="oversized"):
            _force(decode_message(injector.oversize(frame)))

    def test_trailing_garbage_raises(self, frame, injector):
        with pytest.raises(WireDecodeError, match="trailing"):
            _force(decode_message(injector.trailing_garbage(frame)))

    def test_random_fault_battery(self, frame, injector):
        # Seeded random sweep across every fault class: nothing but
        # WireDecodeError (or a clean registered decode) may escape.
        registered = {s.cls for s in registered_specs()}
        for _round in range(25):
            for name, fault in injector.faults().items():
                corrupted = fault(frame)
                try:
                    decoded = _force(decode_message(corrupted))
                except WireDecodeError:
                    continue
                assert name == "bit-flipped", f"{name} fault decoded cleanly"
                assert type(decoded) in registered
