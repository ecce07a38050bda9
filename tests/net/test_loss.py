"""Tests for packet-loss failure injection."""

import pytest

from repro.baselines.client_server import CsDone
from repro.net import LinkModel, Network
from repro.sim import Simulator


def lossy_network(loss, seed=0):
    sim = Simulator()
    net = Network(
        sim,
        default_link=LinkModel(loss_probability=loss),
        loss_seed=seed,
    )
    return sim, net


class TestPacketLoss:
    def test_total_loss_delivers_nothing(self):
        sim, net = lossy_network(1.0)
        a = net.create_host("a")
        b = net.create_host("b")
        b.bind("t", lambda packet: pytest.fail("must not deliver"))
        for _ in range(5):
            a.send(b.address, "t", CsDone(0))
        sim.run()
        assert net.packets_dropped == 5
        assert net.packets_delivered == 0

    def test_zero_loss_delivers_everything(self):
        sim, net = lossy_network(0.0)
        a = net.create_host("a")
        b = net.create_host("b")
        received = []
        b.bind("t", lambda packet: received.append(packet.payload))
        for i in range(20):
            a.send(b.address, "t", CsDone(i))
        sim.run()
        assert len(received) == 20

    def test_partial_loss_is_deterministic_per_seed(self):
        def run(seed):
            sim, net = lossy_network(0.5, seed=seed)
            a = net.create_host("a")
            b = net.create_host("b")
            received = []
            b.bind("t", lambda packet: received.append(packet.payload))
            for i in range(40):
                a.send(b.address, "t", CsDone(i))
            sim.run()
            return received

        assert run(seed=3) == run(seed=3)
        assert run(seed=3) != run(seed=4)

    def test_partial_loss_rate_plausible(self):
        sim, net = lossy_network(0.5, seed=1)
        a = net.create_host("a")
        b = net.create_host("b")
        received = []
        b.bind("t", lambda packet: received.append(packet.payload))
        for i in range(200):
            a.send(b.address, "t", CsDone(i))
        sim.run()
        assert 60 <= len(received) <= 140  # ~50% with slack

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            LinkModel(loss_probability=1.5)
        with pytest.raises(ValueError):
            LinkModel(loss_probability=-0.1)


class TestBestPeerUnderLoss:
    def test_query_degrades_gracefully(self):
        """Lost agents/answers shrink the answer set but never crash."""
        from repro.agents.costs import AgentCosts
        from repro.core import BestPeerConfig, build_network
        from repro.topology import line

        config = BestPeerConfig(
            agent_costs=AgentCosts(
                class_install_time=0.002,
                state_install_time=0.001,
                execute_overhead=0.0,
                page_io_time=0.0,
                object_match_time=0.0,
            )
        )
        lossless = build_network(6, config=config, topology=line(6))
        for node in lossless.nodes[1:]:
            node.share(["k"], b"x")
        baseline = lossless.base.issue_query("k")
        lossless.sim.run()

        lossy = build_network(6, config=config, topology=line(6))
        for node in lossy.nodes[1:]:
            node.share(["k"], b"x")
        # Turn the loss on *after* the (reliable) join phase.
        lossy.network.default_link = LinkModel(loss_probability=0.3)
        handle = lossy.base.issue_query("k")
        lossy.sim.run()
        assert handle.network_answer_count <= baseline.network_answer_count
