"""Tests for LIGLO servers and clients."""

import pytest

from repro.errors import LigloError
from repro.ids import BPID
from repro.liglo import LigloClient, LigloServer
from repro.net import Network
from repro.sim import Simulator
from repro.util.tracing import Tracer


class Rig:
    def __init__(self, servers=1, capacity=None, check_interval=None):
        self.sim = Simulator()
        self.tracer = Tracer()
        self.network = Network(self.sim, tracer=self.tracer)
        self.servers = []
        for i in range(servers):
            host = self.network.create_host(f"liglo-{i}")
            self.servers.append(
                LigloServer(
                    host,
                    capacity=capacity,
                    check_interval=check_interval,
                    tracer=self.tracer,
                )
            )
        self._node_count = 0

    def add_client(self):
        host = self.network.create_host(f"node-{self._node_count}")
        self._node_count += 1
        return host, LigloClient(host, tracer=self.tracer)


class TestRegistration:
    def test_register_assigns_bpid(self):
        rig = Rig()
        _, client = rig.add_client()
        results = []
        client.register(rig.servers[0].host.address, results.append)
        rig.sim.run()
        (result,) = results
        assert result.accepted
        assert result.bpid == BPID(str(rig.servers[0].host.address), 0)
        assert client.bpid == result.bpid
        assert rig.servers[0].stats()["members"] == 1

    def test_bpids_are_sequential_per_server(self):
        rig = Rig()
        bpids = []
        for _ in range(3):
            _, client = rig.add_client()
            client.register(
                rig.servers[0].host.address,
                lambda r: bpids.append(r.bpid),
            )
        rig.sim.run()
        assert sorted(b.node_id for b in bpids) == [0, 1, 2]

    def test_registration_returns_initial_peers(self):
        rig = Rig()
        hosts = []
        for _ in range(4):
            host, client = rig.add_client()
            hosts.append(host)
            client.register(rig.servers[0].host.address, lambda r: None)
            rig.sim.run()
        host, client = rig.add_client()
        results = []
        client.register(rig.servers[0].host.address, results.append)
        rig.sim.run()
        (result,) = results
        assert len(result.peers) == 4
        peer_addresses = {address for _, address in result.peers}
        assert peer_addresses == {h.address for h in hosts}

    def test_initial_peers_capped(self):
        rig = Rig()
        for _ in range(8):
            _, client = rig.add_client()
            client.register(rig.servers[0].host.address, lambda r: None)
            rig.sim.run()
        _, client = rig.add_client()
        results = []
        client.register(rig.servers[0].host.address, results.append)
        rig.sim.run()
        assert len(results[0].peers) == 5  # DEFAULT_INITIAL_PEERS

    def test_capacity_rejection(self):
        rig = Rig(capacity=1)
        _, first = rig.add_client()
        first.register(rig.servers[0].host.address, lambda r: None)
        rig.sim.run()
        _, second = rig.add_client()
        results = []
        second.register(rig.servers[0].host.address, results.append)
        rig.sim.run()
        (result,) = results
        assert not result.accepted
        assert "capacity" in result.reason
        assert rig.servers[0].registrations_rejected == 1

    def test_register_any_falls_through_to_next_server(self):
        rig = Rig(servers=2, capacity=1)
        _, filler = rig.add_client()
        filler.register(rig.servers[0].host.address, lambda r: None)
        rig.sim.run()
        _, client = rig.add_client()
        results = []
        client.register_any(
            [rig.servers[0].host.address, rig.servers[1].host.address],
            results.append,
        )
        rig.sim.run()
        (result,) = results
        assert result.accepted
        assert result.bpid.liglo_id == str(rig.servers[1].host.address)

    def test_register_any_reports_total_failure(self):
        rig = Rig(servers=1, capacity=1)
        _, filler = rig.add_client()
        filler.register(rig.servers[0].host.address, lambda r: None)
        rig.sim.run()
        _, client = rig.add_client()
        results = []
        client.register_any([rig.servers[0].host.address], results.append)
        rig.sim.run()
        assert not results[0].accepted

    def test_register_any_needs_addresses(self):
        rig = Rig()
        _, client = rig.add_client()
        with pytest.raises(LigloError):
            client.register_any([], lambda r: None)

    def test_registration_timeout(self):
        rig = Rig()
        host, client = rig.add_client()
        server_address = rig.servers[0].host.address
        rig.servers[0].host.disconnect()
        results = []
        client.register(server_address, results.append)
        rig.sim.run()
        (result,) = results
        assert not result.accepted
        assert "timed out" in result.reason


class TestResolution:
    def register(self, rig, client):
        results = []
        client.register(rig.servers[0].host.address, results.append)
        rig.sim.run()
        return results[0]

    def test_resolve_finds_current_address(self):
        rig = Rig()
        host_a, client_a = rig.add_client()
        result_a = self.register(rig, client_a)
        _, client_b = rig.add_client()
        self.register(rig, client_b)
        replies = []
        client_b.resolve(result_a.bpid, replies.append)
        rig.sim.run()
        (reply,) = replies
        assert reply.online
        assert reply.address == host_a.address

    def test_resolve_after_ip_change(self):
        """The whole point of LIGLO: find a peer under its new address."""
        rig = Rig()
        host_a, client_a = rig.add_client()
        result_a = self.register(rig, client_a)
        old_address = host_a.address
        host_a.disconnect()
        host_a.connect()
        client_a.announce()
        rig.sim.run()
        assert host_a.address != old_address

        _, client_b = rig.add_client()
        self.register(rig, client_b)
        replies = []
        client_b.resolve(result_a.bpid, replies.append)
        rig.sim.run()
        assert replies[0].address == host_a.address

    def test_resolve_unknown_bpid(self):
        rig = Rig()
        _, client = rig.add_client()
        self.register(rig, client)
        replies = []
        client.resolve(
            BPID(str(rig.servers[0].host.address), 999), replies.append
        )
        rig.sim.run()
        (reply,) = replies
        assert not reply.known
        assert reply.address is None

    def test_resolve_timeout_gives_none(self):
        rig = Rig()
        _, client = rig.add_client()
        result = self.register(rig, client)
        rig.servers[0].host.disconnect()
        replies = []
        client.resolve(result.bpid, replies.append)
        rig.sim.run()
        assert replies == [None]

    def test_announce_requires_registration(self):
        rig = Rig()
        _, client = rig.add_client()
        with pytest.raises(LigloError):
            client.announce()


class TestValidityChecks:
    def test_silent_member_marked_offline(self):
        rig = Rig(check_interval=10.0)
        host, client = rig.add_client()
        results = []
        client.register(rig.servers[0].host.address, results.append)
        rig.sim.run(until=1.0)
        bpid = results[0].bpid
        host.disconnect()
        rig.sim.run(until=20.0)
        entry = rig.servers[0].lookup(bpid)
        assert entry is not None
        assert not entry.online

    def test_responsive_member_stays_online(self):
        rig = Rig(check_interval=10.0)
        _, client = rig.add_client()
        results = []
        client.register(rig.servers[0].host.address, results.append)
        rig.sim.run(until=25.0)
        entry = rig.servers[0].lookup(results[0].bpid)
        assert entry.online

    def test_offline_member_resolves_to_none_until_reannounce(self):
        rig = Rig(check_interval=5.0)
        host, client = rig.add_client()
        results = []
        client.register(rig.servers[0].host.address, results.append)
        rig.sim.run(until=1.0)
        host.disconnect()
        rig.sim.run(until=12.0)

        _, observer = rig.add_client()
        observer.register(rig.servers[0].host.address, lambda r: None)
        replies = []
        observer.resolve(results[0].bpid, replies.append)
        rig.sim.run(until=14.0)
        assert replies[0].online is False
        assert replies[0].address is None

        host.connect()
        client.announce()
        rig.sim.run(until=16.0)
        replies.clear()
        observer.resolve(results[0].bpid, replies.append)
        rig.sim.run(until=18.0)
        assert replies[0].online is True
        assert replies[0].address == host.address


class TestMultiServer:
    def test_same_node_id_different_servers_is_fine(self):
        """"Two nodes can register to two different servers and be
        assigned the same name" - BPIDs stay globally distinct."""
        rig = Rig(servers=2)
        bpids = []
        for server in rig.servers:
            _, client = rig.add_client()
            client.register(server.host.address, lambda r: bpids.append(r.bpid))
        rig.sim.run()
        assert bpids[0].node_id == bpids[1].node_id == 0
        assert bpids[0] != bpids[1]

    def test_server_failure_is_isolated(self):
        """Members of a live LIGLO are unaffected by another's failure."""
        rig = Rig(servers=2)
        _, client_a = rig.add_client()
        results_a = []
        client_a.register(rig.servers[0].host.address, results_a.append)
        _, client_b = rig.add_client()
        results_b = []
        client_b.register(rig.servers[1].host.address, results_b.append)
        rig.sim.run()
        rig.servers[0].host.disconnect()
        # Resolution through server 1 still works.
        replies = []
        client_a.resolve(results_b[0].bpid, replies.append)
        rig.sim.run()
        assert replies[0].online
