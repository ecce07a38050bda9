"""Unit and property tests for agent envelopes."""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.agents.envelope import (
    DEFAULT_TTL,
    MODE_FLOOD,
    MODE_ITINERARY,
    AgentEnvelope,
    freeze_state,
)
from repro.errors import WireDecodeError
from repro.ids import BPID, AgentId
from repro.net.address import IPAddress


def make_envelope(ttl=DEFAULT_TTL, hops=0, mode=MODE_FLOOD, path=()):
    origin = BPID("liglo", 0)
    return AgentEnvelope(
        agent_id=AgentId(origin, 0),
        class_name="TestAgent",
        source="class TestAgent(Agent): pass",
        state=freeze_state({"keyword": "jazz"}),
        ttl=ttl,
        hops=hops,
        initiator=origin,
        initiator_address=IPAddress("10.0.0.1"),
        mode=mode,
        path=tuple(path),
    )


class TestEnvelope:
    def test_hop_decrements_ttl_increments_hops(self):
        envelope = make_envelope(ttl=5, hops=2)
        hopped = envelope.hop("src")
        assert hopped.ttl == 4
        assert hopped.hops == 3
        assert hopped.source == "src"
        # The original is unchanged (frozen).
        assert envelope.ttl == 5

    def test_expired(self):
        assert not make_envelope(ttl=1).expired
        assert make_envelope(ttl=0).expired
        assert make_envelope(ttl=-1).expired

    def test_with_source_strips_or_adds(self):
        envelope = make_envelope()
        assert envelope.with_source(None).source is None
        assert envelope.with_source("code").source == "code"

    def test_with_state_replaces(self):
        envelope = make_envelope()
        updated = envelope.with_state({"keyword": "rock"})
        assert updated.state == freeze_state({"keyword": "rock"})
        assert updated.thaw() == {"keyword": "rock"}
        assert envelope.thaw() == {"keyword": "jazz"}

    def test_each_thaw_is_a_fresh_copy(self):
        envelope = make_envelope()
        mine = envelope.thaw()
        mine["keyword"] = "scribbled"
        assert envelope.thaw() == {"keyword": "jazz"}

    def test_corrupt_state_thaws_to_a_typed_decode_error(self):
        envelope = replace(make_envelope(), state=b"\x80\x04not a pickle")
        with pytest.raises(WireDecodeError, match="corrupt agent state"):
            envelope.thaw()

    def test_relays_of_one_envelope_forward_one_next_hop(self):
        envelope = make_envelope(ttl=5, hops=2)
        assert envelope.hop(None) is envelope.hop(None)
        assert envelope.hop(None) == replace(envelope, ttl=4, hops=3, source=None)
        assert envelope.hop("src") is not envelope.hop("src")

    def test_advance_path(self):
        a, b = IPAddress("10.0.0.2"), IPAddress("10.0.0.3")
        envelope = make_envelope(mode=MODE_ITINERARY, path=(a, b))
        advanced = envelope.advance_path()
        assert advanced.path == (b,)
        assert advanced.advance_path().path == ()

    @given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=20))
    def test_ttl_plus_hops_invariant(self, ttl, hops):
        """Each hop preserves ttl + hops: the redundancy the paper uses
        to recognize already-seen agents."""
        envelope = make_envelope(ttl=ttl, hops=hops)
        total = envelope.ttl + envelope.hops
        current = envelope
        for _ in range(5):
            current = current.hop(None)
            assert current.ttl + current.hops == total
