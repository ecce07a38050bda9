"""Tests for fault plans: builders, validation, seeded churn timelines."""

import pytest

from repro.errors import FaultPlanError
from repro.faults import (
    KIND_LIGLO_DOWN,
    KIND_LIGLO_UP,
    KIND_LINK_WINDOW,
    KIND_NODE_CRASH,
    KIND_NODE_RESTART,
    KIND_PARTITION,
    KIND_PARTITION_HEAL,
    FaultEvent,
    FaultPlan,
)

NAMES = [f"node-{i}" for i in range(1, 11)]


class TestFaultEvent:
    def test_rejects_negative_time(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(-1.0, KIND_NODE_CRASH, "node-1")

    def test_rejects_unknown_kind(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(1.0, "power-surge", "node-1")

    def test_params_lookup(self):
        event = FaultEvent(1.0, KIND_LINK_WINDOW, params=(("duration", 2.0),))
        assert event.get("duration") == 2.0
        assert event.get("missing", 42) == 42


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan(
            (
                FaultEvent(5.0, KIND_NODE_RESTART, "node-1"),
                FaultEvent(1.0, KIND_NODE_CRASH, "node-1"),
            )
        )
        assert [event.time for event in plan] == [1.0, 5.0]
        assert plan.horizon == 5.0

    def test_empty_plan(self):
        plan = FaultPlan()
        assert len(plan) == 0
        assert plan.horizon == 0.0
        assert plan.kinds() == {}

    def test_extended_merges_and_resorts(self):
        plan = FaultPlan(FaultPlan.node_session("node-1", 4.0, 1.0))
        plan = plan.extended(FaultPlan.liglo_outage("liglo-0", 2.0, 1.0))
        assert [event.kind for event in plan] == [
            KIND_LIGLO_DOWN,
            KIND_LIGLO_UP,
            KIND_NODE_CRASH,
            KIND_NODE_RESTART,
        ]


class TestBuilders:
    def test_node_session_pair(self):
        crash, restart = FaultPlan.node_session("node-2", 3.0, 2.5)
        assert crash == FaultEvent(3.0, KIND_NODE_CRASH, "node-2")
        assert restart == FaultEvent(5.5, KIND_NODE_RESTART, "node-2")

    def test_node_session_rejects_zero_downtime(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.node_session("node-2", 3.0, 0.0)

    def test_liglo_outage_pair(self):
        down, up = FaultPlan.liglo_outage("liglo-0", 1.0, 4.0)
        assert down.kind == KIND_LIGLO_DOWN and down.time == 1.0
        assert up.kind == KIND_LIGLO_UP and up.time == 5.0

    def test_partition_window(self):
        start, heal = FaultPlan.partition_window(
            [["a", "b"], ["c"]], 2.0, 3.0
        )
        assert start.kind == KIND_PARTITION
        assert start.get("groups") == (("a", "b"), ("c",))
        assert heal.kind == KIND_PARTITION_HEAL and heal.time == 5.0

    def test_link_window_needs_an_override(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.link_window(1.0, 2.0)

    def test_link_window_needs_both_endpoints_or_neither(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.link_window(1.0, 2.0, src="a", loss_probability=0.5)

    def test_link_window_validates_loss(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.link_window(1.0, 2.0, loss_probability=1.5)

    def test_link_window_default_link(self):
        event = FaultPlan.link_window(1.0, 2.0, loss_probability=0.3, latency=0.2)
        assert event.kind == KIND_LINK_WINDOW
        assert event.get("src") is None
        assert event.get("loss_probability") == 0.3
        assert event.get("latency") == 0.2


class TestChurn:
    def test_same_seed_same_timeline(self):
        a = FaultPlan.churn(NAMES, 0.4, 30.0, seed=11)
        b = FaultPlan.churn(NAMES, 0.4, 30.0, seed=11)
        assert a == b

    def test_different_seed_different_timeline(self):
        a = FaultPlan.churn(NAMES, 0.4, 30.0, seed=11)
        b = FaultPlan.churn(NAMES, 0.4, 30.0, seed=12)
        assert a != b

    def test_rate_selects_fraction(self):
        plan = FaultPlan.churn(NAMES, 0.3, 30.0, seed=0)
        assert plan.kinds() == {KIND_NODE_CRASH: 3, KIND_NODE_RESTART: 3}

    def test_zero_rate_is_empty(self):
        assert len(FaultPlan.churn(NAMES, 0.0, 30.0, seed=0)) == 0

    def test_sessions_are_crash_restart_pairs(self):
        plan = FaultPlan.churn(NAMES, 0.5, 30.0, seed=5, start=2.0)
        by_node = {}
        for event in plan:
            by_node.setdefault(event.target, []).append(event)
        for events in by_node.values():
            crash = next(e for e in events if e.kind == KIND_NODE_CRASH)
            restart = next(e for e in events if e.kind == KIND_NODE_RESTART)
            assert 2.0 <= crash.time < 32.0
            assert 0.5 <= restart.time - crash.time <= 5.0

    def test_rejects_bad_rate(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.churn(NAMES, 1.5, 30.0)

    def test_rejects_bad_horizon(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.churn(NAMES, 0.5, 0.0)

    def test_rejects_bad_downtime_band(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.churn(NAMES, 0.5, 30.0, min_downtime=5.0, max_downtime=1.0)
