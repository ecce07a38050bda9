"""Tests for hosts and the network fabric."""

import pytest

from repro.baselines.client_server import CsDone, CsQuery
from repro.errors import HostOffline, NetworkError, UnknownProtocolError
from repro.net import LinkModel, Network
from repro.net.codec import encode_message
from repro.net.message import PACKET_OVERHEAD_BYTES
from repro.sim import Simulator
from repro.util.tracing import Tracer


def make_network(**kwargs):
    sim = Simulator()
    return sim, Network(sim, tracer=Tracer(), **kwargs)


class TestDelivery:
    def test_payload_arrives_intact(self):
        sim, net = make_network()
        a = net.create_host("a")
        b = net.create_host("b")
        received = []
        b.bind("test", lambda packet: received.append(packet.payload))
        a.send(b.address, "test", CsQuery(1, "jazz"))
        sim.run()
        assert received == [CsQuery(1, "jazz")]

    def test_wire_size_is_frame_plus_overhead(self):
        sim, net = make_network()
        a = net.create_host("a")
        b = net.create_host("b")
        b.bind("test", lambda packet: None)
        payload = CsQuery(1, "x" * 100)
        size = a.send(b.address, "test", payload)
        assert size == len(encode_message(payload)) + PACKET_OVERHEAD_BYTES
        sim.run()

    def test_delivery_takes_transmission_plus_latency(self):
        sim, net = make_network(
            default_link=LinkModel(latency=0.01, bandwidth=1000.0),
        )
        a = net.create_host("a", dispatch_time=0.0)
        b = net.create_host("b", dispatch_time=0.0)
        arrival = []
        b.bind("test", lambda packet: arrival.append(sim.now))
        size = a.send(b.address, "test", CsQuery(1, "payload"))
        sim.run()
        assert arrival[0] == pytest.approx(size / 1000.0 + 0.01)

    def test_sender_nic_serializes_transmissions(self):
        """Two back-to-back sends must not overlap on the uplink."""
        sim, net = make_network(
            default_link=LinkModel(latency=0.0, bandwidth=100.0),
        )
        a = net.create_host("a", dispatch_time=0.0)
        b = net.create_host("b", dispatch_time=0.0)
        arrivals = []
        b.bind("test", lambda packet: arrivals.append(sim.now))
        size1 = a.send(b.address, "test", CsQuery(1, "first"))
        size2 = a.send(b.address, "test", CsQuery(2, "second"))
        sim.run()
        assert arrivals[0] == pytest.approx(size1 / 100.0)
        assert arrivals[1] == pytest.approx((size1 + size2) / 100.0)

    def test_single_thread_cpu_serializes_handlers(self):
        sim, net = make_network()
        a = net.create_host("a")
        b = net.create_host("b", cpu_threads=1, dispatch_time=0.0)
        done = []

        def slow_handler(packet):
            b.cpu.submit(1.0, done.append, sim.now)

        b.bind("work", slow_handler)
        a.send(b.address, "work", CsDone(1))
        a.send(b.address, "work", CsDone(2))
        sim.run()
        assert len(done) == 2
        assert done[1] - done[0] == pytest.approx(1.0)

    def test_multi_thread_cpu_overlaps_handlers(self):
        sim, net = make_network()
        a = net.create_host("a")
        b = net.create_host("b", cpu_threads=2, dispatch_time=0.0)
        done = []

        def slow_handler(packet):
            b.cpu.submit(1.0, done.append, sim.now)

        b.bind("work", slow_handler)
        a.send(b.address, "work", CsDone(1))
        a.send(b.address, "work", CsDone(2))
        sim.run()
        assert len(done) == 2
        assert done[1] - done[0] < 0.5

    def test_unknown_protocol_raises(self):
        sim, net = make_network()
        a = net.create_host("a")
        b = net.create_host("b")
        a.send(b.address, "nobody-listens", CsDone(0))
        with pytest.raises(UnknownProtocolError):
            sim.run()


class TestChurn:
    def test_offline_sender_raises(self):
        sim, net = make_network()
        a = net.create_host("a")
        b = net.create_host("b")
        b_address = b.address
        a.disconnect()
        with pytest.raises(HostOffline):
            a.send(b_address, "test", CsDone(0))

    def test_packet_to_disconnected_host_drops(self):
        sim, net = make_network()
        a = net.create_host("a")
        b = net.create_host("b")
        b.bind("test", lambda packet: pytest.fail("must not deliver"))
        target = b.address
        a.send(target, "test", CsDone(0))
        b.disconnect()
        sim.run()
        assert net.packets_dropped == 1
        assert net.packets_delivered == 0

    def test_reconnect_changes_address(self):
        sim, net = make_network()
        a = net.create_host("a")
        old = a.address
        a.disconnect()
        new = a.connect()
        assert new != old
        assert net.host_at(new) is a
        assert net.host_at(old) is None

    def test_packet_to_stale_address_drops_even_if_reassigned(self):
        """A packet addressed to a host's *old* IP must not reach it."""
        sim, net = make_network()
        a = net.create_host("a")
        b = net.create_host("b")
        old = b.address
        b.disconnect()
        b.connect()
        b.bind("test", lambda packet: pytest.fail("must not deliver"))
        a.send(old, "test", CsDone(0))
        sim.run()
        assert net.packets_dropped == 1

    def test_double_connect_raises(self):
        _, net = make_network()
        a = net.create_host("a")
        with pytest.raises(NetworkError):
            a.connect()

    def test_double_disconnect_raises(self):
        _, net = make_network()
        a = net.create_host("a")
        a.disconnect()
        with pytest.raises(NetworkError):
            a.disconnect()


class TestNetworkAdmin:
    def test_duplicate_host_name_rejected(self):
        _, net = make_network()
        net.create_host("a")
        with pytest.raises(NetworkError):
            net.create_host("a")

    def test_double_bind_rejected(self):
        _, net = make_network()
        a = net.create_host("a")
        a.bind("p", lambda packet: None)
        with pytest.raises(NetworkError):
            a.bind("p", lambda packet: None)

    def test_unbind_allows_rebind(self):
        _, net = make_network()
        a = net.create_host("a")
        a.bind("p", lambda packet: None)
        a.unbind("p")
        a.bind("p", lambda packet: None)

    def test_per_pair_link_override(self):
        sim, net = make_network()
        a = net.create_host("a", dispatch_time=0.0)
        b = net.create_host("b", dispatch_time=0.0)
        slow = LinkModel(latency=5.0, bandwidth=1e9)
        net.set_link(a.address, b.address, slow)
        arrivals = []
        b.bind("test", lambda packet: arrivals.append(sim.now))
        a.send(b.address, "test", CsDone(0))
        sim.run()
        assert arrivals[0] == pytest.approx(5.0, abs=0.01)

    def test_counters(self):
        sim, net = make_network()
        a = net.create_host("a")
        b = net.create_host("b")
        b.bind("test", lambda packet: None)
        size = a.send(b.address, "test", CsQuery(1, "hello"))
        sim.run()
        assert a.messages_sent == 1
        assert a.bytes_sent == size
        assert b.messages_received == 1
        assert net.bytes_carried == size
        assert net.packets_delivered == 1

    def test_trace_records_send_and_deliver(self):
        sim, net = make_network()
        a = net.create_host("a")
        b = net.create_host("b")
        b.bind("test", lambda packet: None)
        a.send(b.address, "test", CsDone(0))
        sim.run()
        assert net.tracer.count("net", "send") == 1
        assert net.tracer.count("net", "deliver") == 1
