"""Message-ordering properties of the network fabric."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.client_server import CsQuery
from repro.net import LinkModel, Network
from repro.sim import Simulator


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=20))
def test_per_pair_delivery_is_fifo(sizes):
    """With one link model, packets between a pair never reorder:
    the sender NIC is FIFO and latency is constant."""
    payloads = [CsQuery(index, "x" * size) for index, size in enumerate(sizes)]
    sim = Simulator()
    net = Network(sim)
    a = net.create_host("a")
    b = net.create_host("b")
    received = []
    b.bind("t", lambda packet: received.append(packet.payload))
    for payload in payloads:
        a.send(b.address, "t", payload)
    sim.run()
    assert received == payloads


def test_cross_pair_messages_can_interleave():
    """A slow transmission on one sender must not delay another sender."""
    sim = Simulator()
    net = Network(
        sim,
        default_link=LinkModel(latency=0.0, bandwidth=100.0),
    )
    slow = net.create_host("slow", dispatch_time=0.0)
    fast = net.create_host("fast", dispatch_time=0.0)
    sink = net.create_host("sink", dispatch_time=0.0)
    received = []
    sink.bind("t", lambda packet: received.append(packet.payload))
    slow.send(sink.address, "t", CsQuery(0, "x" * 5000))  # ~50s of transmission
    fast.send(sink.address, "t", CsQuery(1, "quick"))
    sim.run()
    assert received[0] == CsQuery(1, "quick")


def test_broadcast_fanout_serializes_on_sender_nic():
    sim = Simulator()
    net = Network(
        sim,
        default_link=LinkModel(latency=0.0, bandwidth=1000.0),
    )
    sender = net.create_host("sender", dispatch_time=0.0)
    arrival_times = {}
    receivers = []
    for i in range(5):
        receiver = net.create_host(f"r{i}", dispatch_time=0.0)
        receiver.bind(
            "t", lambda packet, name=f"r{i}": arrival_times.setdefault(name, sim.now)
        )
        receivers.append(receiver)
    wire_sizes = [
        sender.send(receiver.address, "t", CsQuery(0, "y" * 920)) for receiver in receivers
    ]
    per_message = wire_sizes[0] / 1000.0  # seconds on the 1000 B/s NIC
    sim.run()
    times = sorted(arrival_times.values())
    # Five equal transmissions leave one NIC back to back.
    for i, t in enumerate(times, start=1):
        assert t == pytest.approx(i * per_message, rel=0.01)
