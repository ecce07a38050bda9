"""Replication frames: compact round-trips on both wire planes.

The golden-vector batteries in ``tests/net`` pin the exact bytes; these
tests pin the registration contract (ids, planes) and value round-trips
including the edge shapes the protocol relies on (empty keyword lists,
absent repair rid, multi-record pushes).
"""

from repro.ids import BPID
from repro.net import codec as wire
from repro.net.address import IPAddress
from repro.replication.messages import (
    ReplicaAccept,
    ReplicaInvalidate,
    ReplicaOffer,
    ReplicaPush,
    ReplicaRecord,
)
from repro.storm.heapfile import RecordId

OWNER = BPID("liglo-main", 3)
HOLDER = BPID("liglo-main", 8)


class TestRegistrations:
    def test_control_frames_use_the_010b_block(self):
        for type_id, cls in (
            (0x010B, ReplicaOffer), (0x010C, ReplicaAccept), (0x010D, ReplicaInvalidate)
        ):
            assert wire.spec_for_id(type_id).cls is cls
            assert wire.spec_for_id(type_id).plane is wire.CONTROL

    def test_push_rides_the_data_plane(self):
        assert wire.spec_for_id(0x1009).cls is ReplicaPush
        assert wire.spec_for_id(0x1009).plane is wire.DATA
        assert [s.cls for s in wire.registered_specs()].count(ReplicaPush) == 1


class TestSamples:
    """Every spec's golden-vector sample survives its own plane."""

    def test_control_samples_roundtrip(self):
        for type_id in (0x010B, 0x010C, 0x010D):
            sample = wire.spec_for_id(type_id).sample()
            assert wire.decode_message(wire.encode_message(sample)) == sample

    def test_push_sample_roundtrips(self):
        sample = wire.spec_for_id(0x1009).sample()
        assert wire.decode_message(wire.encode_message(sample)) == sample
        assert sample.records and sample.records[0].payload


class TestRoundTrips:
    def roundtrip(self, message):
        return wire.decode_message(wire.encode_message(message))

    def test_offer(self):
        offer = ReplicaOffer(token=7, owner=OWNER, record_count=3, total_bytes=4096)
        assert self.roundtrip(offer) == offer

    def test_accept_and_decline(self):
        accept = ReplicaAccept(token=7, holder=HOLDER, accepted=True)
        assert self.roundtrip(accept) == accept
        decline = ReplicaAccept(
            token=8, holder=HOLDER, accepted=False, reason="replication disabled"
        )
        assert self.roundtrip(decline) == decline

    def test_invalidate_delete_has_no_repair(self):
        invalidate = ReplicaInvalidate(
            owner=OWNER,
            rid=RecordId(2, 5),
            version=3,
            delete=True,
            keywords=("music",),
        )
        decoded = self.roundtrip(invalidate)
        assert decoded == invalidate
        assert decoded.repair_rid is None
        assert decoded.repair_keywords == ()

    def test_invalidate_reshare_names_the_replacement(self):
        invalidate = ReplicaInvalidate(
            owner=OWNER,
            rid=RecordId(2, 5),
            version=4,
            delete=False,
            keywords=("music", "mp3"),
            repair_rid=RecordId(2, 6),
            repair_keywords=("music", "flac"),
        )
        assert self.roundtrip(invalidate) == invalidate

    def test_push_round_trips_versioned_records(self):
        push = ReplicaPush(
            token=9,
            owner=OWNER,
            owner_address=IPAddress("10.0.3.7"),
            records=(
                ReplicaRecord(
                    rid=RecordId(0, 0), version=1, keywords=("a",), payload=b"x" * 100
                ),
                ReplicaRecord(
                    rid=RecordId(4, 2), version=7, keywords=(), payload=b""
                ),
            ),
        )
        decoded = wire.decode_message(wire.encode_message(push))
        assert decoded == push
        assert decoded.record_count == 2
        assert decoded.total_bytes == 100
