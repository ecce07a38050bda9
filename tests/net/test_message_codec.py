"""Packets carry wire frames: lazy decode, the send-side refusal of a
payload no spec takes, and the drop-and-count behaviour of the delivery
loop on corrupt frames — on both the control and the data plane."""

from __future__ import annotations


import pytest

import repro.util.serialization as serialization_module
from repro.agents.messages import _sample_answer
from repro.core.shipping import DataReply
from repro.errors import WireEncodeError
from repro.ids import BPID
from repro.liglo.messages import PROTO_PING, Ping, Pong
from repro.net.address import IPAddress
from repro.net.codec import DATA, encode_message
from repro.net.faults import FrameFaultInjector
from repro.net.message import PACKET_OVERHEAD_BYTES, Packet, _UNDECODED
from repro.net.network import Network
from repro.sim import Simulator
from repro.util.serialization import WireEncoder
from repro.util.tracing import Tracer


def _pair():
    sim = Simulator()
    network = Network(sim, tracer=Tracer())
    alice = network.create_host("alice")
    bob = network.create_host("bob")
    return sim, network, alice, bob


def _deliver_one(payload, protocol=PROTO_PING):
    """Send one payload alice->bob; returns (network, packet, wire_size)."""
    sim, network, alice, bob = _pair()
    received = []
    bob.bind(protocol, received.append)
    wire_size = alice.send(bob.address, protocol, payload)
    sim.run()
    assert len(received) == 1
    return network, received[0], wire_size


# ---------------------------------------------------------------------------
# Compact path
# ---------------------------------------------------------------------------


def test_registered_message_travels_as_compact_frame():
    ping = Ping(token=7)
    network, packet, wire_size = _deliver_one(ping)
    frame = encode_message(ping)
    assert packet.raw == frame
    assert packet.wire_size == len(frame) + PACKET_OVERHEAD_BYTES
    assert wire_size == packet.wire_size
    assert packet.payload == ping
    assert network.encoder.compact_frames == 1


def test_decoded_payload_is_an_independent_copy():
    pong = Pong(token=3, bpid=BPID("s", 1))
    _network, packet, _size = _deliver_one(pong)
    assert packet.payload == pong
    assert packet.payload is not pong  # hosts are separate machines


def test_lazy_decode_happens_once_and_is_cached():
    _network, packet, _size = _deliver_one(Ping(token=1))
    first = packet.payload
    assert packet.payload is first  # second access returns the memo


# ---------------------------------------------------------------------------
# No other wire: a payload no spec takes is a sender bug
# ---------------------------------------------------------------------------


def _refused_at_send(payload, match):
    sim, network, alice, bob = _pair()
    bob.bind("blob", lambda packet: pytest.fail("nothing may arrive"))
    with pytest.raises(WireEncodeError, match=match):
        alice.send(bob.address, "blob", payload)
    sim.run()
    # Nothing left the NIC and nothing was counted as sent.
    assert (alice.messages_sent, alice.bytes_sent, alice.nic_free_at) == (0, 0, 0.0)
    assert network.packets_delivered == 0
    assert (network.encoder.compact_frames, network.encoder.data_frames) == (0, 0)


@pytest.mark.parametrize(
    "payload", [{"keyword": "music"}, "plain string", None], ids=["dict", "str", "none"]
)
def test_unregistered_payload_raises_at_send(payload):
    _refused_at_send(payload, "is not registered")


def test_payload_over_its_planes_cap_raises_at_send():
    oversized = DataReply(token=1, objects=((("big",), b"x" * DATA.max_frame_bytes),))
    _refused_at_send(oversized, "exceeds")


def test_every_packet_counts_as_a_frame_and_pickle_payloads_stays_zero():
    network, _packet, _size = _deliver_one(_sample_answer(), protocol="answer")
    encoder = network.encoder
    assert (encoder.compact_frames, encoder.data_frames) == (0, 1)
    assert encoder.pickle_payloads == 0


# ---------------------------------------------------------------------------
# WireEncoder cache
# ---------------------------------------------------------------------------


def test_encoder_cache_capacity_zero_disables_memoization(monkeypatch):
    """Capacity 0 turns off the encoder's identity cache only: both sends
    reach the codec, which may serve the second from its own memo."""
    monkeypatch.setattr(serialization_module, "WIRE_CACHE_CAPACITY", 0)
    encoder = WireEncoder()
    ping = Ping(token=9)
    first = encoder.encode(ping)
    second = encoder.encode(ping)
    assert first == second
    assert encoder.hits == 0 and encoder.misses == 2


# ---------------------------------------------------------------------------
# Corrupt frames in the delivery loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fault", ["truncated", "bit-flipped", "wrong-version"])
def test_corrupt_frame_is_dropped_counted_and_does_not_kill_the_host(fault):
    sim, network, alice, bob = _pair()
    received = []
    bob.bind(PROTO_PING, lambda packet: received.append(packet.payload))

    frame = encode_message(Ping(token=1))
    corrupted = FrameFaultInjector(seed=1).faults()[fault](frame)
    if fault == "bit-flipped":
        corrupted = bytes([frame[0] ^ 0x01]) + frame[1:]  # guaranteed-bad magic
    packet = Packet(
        src=alice.address,
        dst=bob.address,
        protocol=PROTO_PING,
        wire_size=len(corrupted) + PACKET_OVERHEAD_BYTES,
        sent_at=sim.now,
        raw=bytes(corrupted),
    )
    bob._receive(packet)
    sim.run()

    assert received == []  # the corrupt packet never reached the handler
    assert network.decode_errors == 1
    assert network.tracer.counter("net", "decode-error") == 1
    drops = [e for e in network.tracer.select("net", "drop")]
    assert any(e.get("reason") == "decode-error" for e in drops)

    # The host keeps serving: a well-formed message still goes through.
    alice.send(bob.address, PROTO_PING, Ping(token=2))
    sim.run()
    assert received == [Ping(token=2)]
    assert network.decode_errors == 1  # no new errors


# ---------------------------------------------------------------------------
# Data plane: stream frames, per-plane counters, drop-and-count
# ---------------------------------------------------------------------------


def test_data_registered_message_travels_as_stream_frame():
    answer = _sample_answer()
    network, packet, wire_size = _deliver_one(answer, protocol="answer")
    frame = encode_message(answer)
    assert packet.raw == frame
    assert packet.wire_size == len(frame) + PACKET_OVERHEAD_BYTES
    assert wire_size == packet.wire_size
    assert packet.payload == answer
    assert network.encoder.data_frames == 1
    assert network.encoder.compact_frames == 0
    assert network.encoder.data_bytes == len(frame)


@pytest.mark.parametrize("fault", ["truncated", "bit-flipped", "wrong-version"])
def test_corrupt_data_frame_is_dropped_and_counted(fault):
    sim, network, alice, bob = _pair()
    received = []
    bob.bind("answer", lambda packet: received.append(packet.payload))

    frame = encode_message(_sample_answer())
    injector = FrameFaultInjector(seed=1)
    corrupted = injector.faults()[fault](frame)
    if fault == "bit-flipped":
        corrupted = bytes([frame[0] ^ 0x01]) + frame[1:]  # guaranteed-bad magic
    packet = Packet(
        src=alice.address,
        dst=bob.address,
        protocol="answer",
        wire_size=len(corrupted) + PACKET_OVERHEAD_BYTES,
        sent_at=sim.now,
        raw=bytes(corrupted),
    )
    bob._receive(packet)
    sim.run()

    assert received == []
    assert network.decode_errors == 1
    assert network.tracer.counter("net", "decode-error") == 1

    # The host keeps serving data frames afterwards.
    alice.send(bob.address, "answer", _sample_answer(2))
    sim.run()
    assert received == [_sample_answer(2)]
    assert network.decode_errors == 1


class TestPacketContract:
    """``Packet`` is a plain slotted class built positionally on the send
    path; keyword construction (tests, the LIGLO recency harness) must
    give the very same packet."""

    FIELDS = ("src", "dst", "protocol", "wire_size", "sent_at", "raw")

    def _args(self):
        frame = encode_message(Ping(token=7))
        return (
            IPAddress("10.0.0.1"),
            IPAddress("10.0.0.2"),
            PROTO_PING,
            len(frame) + PACKET_OVERHEAD_BYTES,
            1.25,
            frame,
        )

    def test_positional_and_keyword_construction_agree(self):
        args = self._args()
        positional = Packet(*args)
        keyword = Packet(**dict(zip(self.FIELDS, args)))
        for name in self.FIELDS:
            assert getattr(positional, name) == getattr(keyword, name)
        assert positional._decoded is _UNDECODED and keyword._decoded is _UNDECODED

    def test_payload_decodes_once_and_is_memoised(self, monkeypatch):
        import repro.net.message as message

        calls = []
        real = message.decode_message

        def counting(raw):
            calls.append(raw)
            return real(raw)

        monkeypatch.setattr(message, "decode_message", counting)
        packet = Packet(*self._args())
        first = packet.payload
        assert first == Ping(token=7)
        assert packet.payload is first
        assert len(calls) == 1

    def test_no_per_instance_dict(self):
        packet = Packet(*self._args())
        assert not hasattr(packet, "__dict__")
        with pytest.raises(AttributeError):
            packet.extra = 1
