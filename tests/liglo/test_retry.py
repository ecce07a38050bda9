"""Retry/backoff behaviour of the LIGLO client under outages."""

import pytest

from repro.errors import LigloError, LigloUnreachableError
from repro.liglo import LigloClient, LigloServer
from repro.liglo.server import CHECK_TIMEOUT
from repro.net import Network
from repro.sim import Simulator
from repro.util.retry import RetryPolicy
from repro.util.tracing import Tracer

POLICY = RetryPolicy(
    max_attempts=3, base_delay=0.5, multiplier=2.0, max_delay=4.0, jitter=0.0
)


class Rig:
    def __init__(self, policy=POLICY):
        self.sim = Simulator()
        self.tracer = Tracer(enabled=True)
        self.network = Network(self.sim, tracer=self.tracer)
        host = self.network.create_host("liglo-0")
        self.server = LigloServer(host, check_interval=None, tracer=self.tracer)
        self._count = 0
        self.policy = policy

    def add_client(self):
        host = self.network.create_host(f"node-{self._count}")
        self._count += 1
        client = LigloClient(host, tracer=self.tracer, retry_policy=self.policy)
        return host, client


class TestRegisterRetry:
    def test_retries_through_an_outage(self):
        rig = Rig()
        _, client = rig.add_client()
        # Dark for the first attempt; back before retries run out.
        rig.server.host.suspend()
        rig.sim.schedule(2.5, rig.server.host.resume)
        results = []
        client.register(rig.server.host.address, results.append)
        rig.sim.run()
        (result,) = results
        assert result.accepted
        assert client.retries >= 1
        assert rig.tracer.counter("liglo", "register-retry") == client.retries
        assert client.pending_counts() == {"registers": 0, "resolves": 0, "hints": 0}

    def test_exhaustion_reports_timeout(self):
        rig = Rig()
        _, client = rig.add_client()
        rig.server.host.suspend()  # dark forever
        results = []
        client.register(rig.server.host.address, results.append)
        rig.sim.run()
        (result,) = results
        assert not result.accepted
        assert result.reason == "registration timed out"
        # max_attempts=3 means exactly two re-sends before giving up.
        assert client.retries == 2
        assert client.pending_counts() == {"registers": 0, "resolves": 0, "hints": 0}

    def test_no_policy_is_single_shot(self):
        rig = Rig(policy=None)
        _, client = rig.add_client()
        rig.server.host.suspend()
        results = []
        client.register(rig.server.host.address, results.append)
        rig.sim.run()
        assert not results[0].accepted
        assert client.retries == 0

    def test_client_offline_mid_retry_fails_cleanly(self):
        rig = Rig()
        host, client = rig.add_client()
        rig.server.host.suspend()
        results = []
        client.register(rig.server.host.address, results.append)
        # The client's own host drops while a retry is pending.
        rig.sim.schedule(2.1, host.disconnect)
        rig.sim.run()
        (result,) = results
        assert not result.accepted
        assert result.reason == "host went offline during retry"


class TestResolveRetry:
    def test_retries_through_an_outage(self):
        rig = Rig()
        _, a = rig.add_client()
        _, b = rig.add_client()
        a.register(rig.server.host.address, lambda r: None)
        b.register(rig.server.host.address, lambda r: None)
        rig.sim.run()
        rig.server.host.suspend()
        rig.sim.schedule(2.5, rig.server.host.resume)
        replies = []
        a.resolve(b.bpid, replies.append)
        rig.sim.run()
        (reply,) = replies
        assert reply is not None
        assert reply.address == b.host.address
        assert rig.tracer.counter("liglo", "resolve-retry") >= 1
        assert a.pending_counts() == {"registers": 0, "resolves": 0, "hints": 0}

    def test_exhaustion_yields_none(self):
        rig = Rig()
        _, a = rig.add_client()
        _, b = rig.add_client()
        a.register(rig.server.host.address, lambda r: None)
        b.register(rig.server.host.address, lambda r: None)
        rig.sim.run()
        rig.server.host.suspend()
        replies = []
        a.resolve(b.bpid, replies.append)
        rig.sim.run()
        assert replies == [None]
        assert a.pending_counts() == {"registers": 0, "resolves": 0, "hints": 0}


class TestAnnounceVerified:
    def _registered_client(self, rig):
        _, client = rig.add_client()
        client.register(rig.server.host.address, lambda r: None)
        rig.sim.run()
        assert client.bpid is not None
        return client

    def test_requires_registration(self):
        rig = Rig()
        _, client = rig.add_client()
        with pytest.raises(LigloError):
            client.announce_verified()

    def test_verifies_on_healthy_network(self):
        rig = Rig()
        client = self._registered_client(rig)
        confirmations = []
        client.announce_verified(on_ok=lambda: confirmations.append(True))
        rig.sim.run()
        assert confirmations == [True]
        assert rig.tracer.count("liglo", "announce-verified") == 1

    def test_verifies_after_outage_ends(self):
        rig = Rig()
        client = self._registered_client(rig)
        rig.server.host.suspend()
        rig.sim.schedule(2.5, rig.server.host.resume)
        confirmations = []
        client.announce_verified(on_ok=lambda: confirmations.append(True))
        rig.sim.run()
        assert confirmations == [True]
        assert rig.tracer.counter("liglo", "announce-retry") >= 1

    def test_exhaustion_surfaces_typed_error(self):
        rig = Rig()
        client = self._registered_client(rig)
        rig.server.host.suspend()
        errors = []
        client.announce_verified(on_failed=errors.append)
        rig.sim.run()
        (error,) = errors
        assert isinstance(error, LigloUnreachableError)
        assert error.attempts == POLICY.max_attempts

    def test_exhaustion_without_handler_aborts_run(self):
        rig = Rig()
        client = self._registered_client(rig)
        rig.server.host.suspend()
        client.announce_verified()
        with pytest.raises(LigloUnreachableError):
            rig.sim.run()


class TestServerStats:
    def test_stats_shape(self):
        rig = Rig()
        self_client_count = 2
        for _ in range(self_client_count):
            _, client = rig.add_client()
            client.register(rig.server.host.address, lambda r: None)
        rig.sim.run()
        stats = rig.server.stats()
        assert stats["members"] == self_client_count
        assert stats["online_members"] == self_client_count
        assert stats["pending_pings"] == 0
        assert stats["ping_timeouts"] == 0
        assert stats["registrations_rejected"] == 0

    def test_ping_timeouts_counted(self):
        sim = Simulator()
        tracer = Tracer(enabled=True)
        network = Network(sim, tracer=tracer)
        server_host = network.create_host("liglo-0")
        server = LigloServer(server_host, check_interval=5.0, tracer=tracer)
        node_host = network.create_host("node-0")
        client = LigloClient(node_host, tracer=tracer)
        client.register(server_host.address, lambda r: None)
        sim.run()  # the first sweep (t=5) pinged a live member
        node_host.disconnect()  # member goes dark before the next sweep
        sim.run(until=2 * 5.0 + CHECK_TIMEOUT + 1.0)  # the second sweep's ping expires
        stats = server.stats()
        assert stats["ping_timeouts"] >= 1
        assert stats["pending_pings"] == 0
