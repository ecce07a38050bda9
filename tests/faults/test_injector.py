"""Tests for scheduling fault plans onto a built deployment."""

import pytest

from repro.core.builder import build_network
from repro.core.config import BestPeerConfig
from repro.errors import FaultPlanError
from repro.faults import FaultEvent, FaultPlan, SimFaultInjector
from repro.faults.plan import (
    KIND_LIGLO_DOWN,
    KIND_LIGLO_UP,
    KIND_NODE_CRASH,
    KIND_NODE_RESTART,
    KIND_PARTITION,
)
from repro.topology.builders import line
from repro.util.retry import RetryPolicy
from repro.util.tracing import Tracer

POLICY = RetryPolicy(
    max_attempts=2, base_delay=0.25, multiplier=2.0, max_delay=1.0, jitter=0.0
)


def deployment(nodes=4, retry=True):
    config = BestPeerConfig(
        max_direct_peers=3,
        retry_policy=POLICY if retry else None,
    )
    return build_network(
        nodes, config=config, topology=line(nodes), tracer=Tracer(enabled=True)
    )


class TestArming:
    def test_unknown_node_rejected(self):
        net = deployment()
        plan = FaultPlan((FaultEvent(1.0, KIND_NODE_CRASH, "node-99"),))
        with pytest.raises(FaultPlanError):
            SimFaultInjector(net, plan).arm()

    def test_unknown_liglo_rejected(self):
        net = deployment()
        plan = FaultPlan((FaultEvent(1.0, KIND_LIGLO_DOWN, "liglo-9"),))
        with pytest.raises(FaultPlanError):
            SimFaultInjector(net, plan).arm()

    def test_arming_twice_rejected(self):
        net = deployment()
        injector = SimFaultInjector(net, FaultPlan())
        injector.arm()
        with pytest.raises(FaultPlanError):
            injector.arm()


class TestNodeChurn:
    def test_crash_takes_node_offline_and_restart_brings_it_back(self):
        net = deployment()
        plan = FaultPlan(FaultPlan.node_session("node-2", 1.0, 2.0))
        injector = SimFaultInjector(net, plan, tracer=net.tracer)
        injector.arm()
        net.sim.run()
        node = net.nodes[2]
        assert node.host.online
        assert injector.applied == {KIND_NODE_CRASH: 1, KIND_NODE_RESTART: 1}
        assert injector.skipped == {}

    def test_restart_leases_fresh_address(self):
        net = deployment()
        before = net.nodes[2].host.address
        plan = FaultPlan(FaultPlan.node_session("node-2", 1.0, 2.0))
        SimFaultInjector(net, plan).arm()
        net.sim.run()
        assert net.nodes[2].host.address != before

    def test_double_crash_is_skipped_not_fatal(self):
        net = deployment()
        plan = FaultPlan(
            (
                FaultEvent(1.0, KIND_NODE_CRASH, "node-2"),
                FaultEvent(1.5, KIND_NODE_CRASH, "node-2"),
                FaultEvent(3.0, KIND_NODE_RESTART, "node-2"),
                FaultEvent(3.5, KIND_NODE_RESTART, "node-2"),
            )
        )
        injector = SimFaultInjector(net, plan)
        injector.arm()
        net.sim.run()
        assert injector.applied == {KIND_NODE_CRASH: 1, KIND_NODE_RESTART: 1}
        assert injector.skipped == {KIND_NODE_CRASH: 1, KIND_NODE_RESTART: 1}

    def test_restart_during_liglo_outage_degrades_not_crashes(self):
        # The LIGLO stays dark past the whole retry budget; rejoin gives
        # up through on_failed and the injector records the degradation.
        net = deployment()
        plan = FaultPlan(FaultPlan.node_session("node-2", 1.0, 1.0))
        plan = plan.extended(FaultPlan.liglo_outage("liglo-0", 0.5, 60.0))
        injector = SimFaultInjector(net, plan, tracer=net.tracer)
        injector.arm()
        net.sim.run()
        assert len(list(net.tracer.select("fault", "rejoin-degraded"))) == 1
        assert net.nodes[2].host.online  # up, if with stale peers


class TestLigloOutage:
    def test_suspend_keeps_address(self):
        net = deployment()
        liglo_host = net.liglo_servers[0].host
        before = liglo_host.address
        plan = FaultPlan(FaultPlan.liglo_outage("liglo-0", 1.0, 2.0))
        injector = SimFaultInjector(net, plan)
        injector.arm()
        net.sim.run()
        assert liglo_host.online
        assert liglo_host.address == before
        assert injector.applied == {KIND_LIGLO_DOWN: 1, KIND_LIGLO_UP: 1}


class TestPartition:
    def test_partition_window_opens_and_heals(self):
        net = deployment()
        names = [node.name for node in net.nodes]
        half = len(names) // 2
        injector = SimFaultInjector(
            net,
            FaultPlan(
                FaultPlan.partition_window([names[:half], names[half:]], 1.0, 2.0)
            ),
        )
        injector.arm()
        observed = []
        net.sim.schedule(2.0, lambda: observed.append(net.network.partitioned))
        net.sim.schedule(4.0, lambda: observed.append(net.network.partitioned))
        net.sim.run()
        assert observed == [True, False]
        assert injector.applied[KIND_PARTITION] == 1

    def test_unknown_hosts_in_groups_are_filtered(self):
        net = deployment()
        plan = FaultPlan(
            FaultPlan.partition_window([["node-1", "ghost"], ["node-2"]], 1.0, 1.0)
        )
        injector = SimFaultInjector(net, plan)
        injector.arm()
        net.sim.run()
        assert injector.applied[KIND_PARTITION] == 1


class TestLinkWindow:
    def test_default_link_restored_after_window(self):
        net = deployment()
        baseline = net.network.default_link
        plan = FaultPlan(
            (FaultPlan.link_window(1.0, 2.0, loss_probability=0.9),)
        )
        observed = []
        SimFaultInjector(net, plan).arm()
        net.sim.schedule(
            2.0, lambda: observed.append(net.network.default_link.loss_probability)
        )
        net.sim.run()
        assert observed == [0.9]
        assert net.network.default_link == baseline

    def test_pair_window_set_and_cleared(self):
        net = deployment()
        plan = FaultPlan(
            (
                FaultPlan.link_window(
                    1.0, 2.0, src="node-0", dst="node-1", latency=0.5
                ),
            )
        )
        observed = []
        SimFaultInjector(net, plan).arm()
        src = net.nodes[0].host
        dst = net.nodes[1].host

        def probe():
            observed.append(
                net.network.link_for(src.address, dst.address).latency
            )

        net.sim.schedule(2.0, probe)
        net.sim.schedule(4.0, probe)
        net.sim.run()
        assert observed[0] == 0.5
        assert observed[1] == net.network.default_link.latency

    def test_pair_window_with_gone_endpoint_is_skipped(self):
        net = deployment()
        plan = FaultPlan(
            (
                FaultEvent(0.5, KIND_NODE_CRASH, "node-1"),
                FaultPlan.link_window(
                    1.0, 2.0, src="node-0", dst="node-1", latency=0.5
                ),
            )
        )
        injector = SimFaultInjector(net, plan)
        injector.arm()
        net.sim.run()
        assert injector.skipped.get("link-window") == 1


class TestDeterminism:
    def test_same_seed_applies_identically(self):
        counts = []
        for _ in range(2):
            net = deployment(nodes=6)
            names = [node.name for node in net.nodes[1:]]
            plan = FaultPlan.churn(names, 0.6, 10.0, seed=9, min_downtime=1.0)
            injector = SimFaultInjector(net, plan, tracer=net.tracer)
            injector.arm()
            net.sim.run()
            counts.append(
                (
                    dict(sorted(injector.applied.items())),
                    dict(sorted(injector.skipped.items())),
                    net.network.packets_delivered,
                    net.network.bytes_carried,
                )
            )
        assert counts[0] == counts[1]
