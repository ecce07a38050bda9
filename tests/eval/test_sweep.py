"""The churned-query harness: what ``churned_run`` promises its callers."""

from __future__ import annotations

import pytest

from repro.eval.sweep import (
    churn_outage_partition,
    churned_run,
    session_churn,
    share_one_match_each,
)

from tests.support import SMOKE

NODE_COUNT = 8
KEYWORDS = ["needle", "needle"]


def _run(rate=0.5, plan=churn_outage_partition, populate=None, **config_fields):
    return churned_run(
        NODE_COUNT,
        SMOKE,
        rate,
        keywords=KEYWORDS,
        populate=populate or (lambda deployment: share_one_match_each(deployment, "needle")),
        plan=plan,
        **config_fields,
    )


def test_setup_plus_query_traffic_is_the_network_total():
    run = _run()
    seen = run.observables
    queries = len(run.handles)
    assert queries == len(KEYWORDS)
    assert seen["packets_delivered"] == run.deployment.network.packets_delivered
    assert seen["bytes_carried"] == run.deployment.network.bytes_carried
    assert seen["setup_packets"] > 0  # registration happened before the marker
    assert seen["messages_per_query"] == round(
        (seen["packets_delivered"] - seen["setup_packets"]) / queries, 3
    )
    assert seen["bytes_per_query"] == round(
        (seen["bytes_carried"] - seen["setup_bytes"]) / queries, 1
    )


def test_traffic_before_the_marker_is_never_charged_to_queries():
    # A populate hook that floods one query of its own and lets it drain
    # (as replication's settle run does): the marker is scheduled after
    # the hook returns, so the flood grows the set-up share and leaves
    # the per-query message count where the plain run has it.
    def populate_and_flood(deployment):
        share_one_match_each(deployment, "needle")
        deployment.base.issue_query("needle", auto_finish_after=0.2)
        deployment.sim.run()

    plain = _run(rate=0.0, strategy="static").observables
    flooded = _run(rate=0.0, strategy="static", populate=populate_and_flood).observables
    assert flooded["setup_packets"] > plain["setup_packets"]
    assert flooded["setup_bytes"] > plain["setup_bytes"]
    assert flooded["messages_per_query"] == plain["messages_per_query"]


def test_sessions_only_plan_applies_no_outage_and_no_partition():
    full = _run(plan=churn_outage_partition).observables["faults_applied"]
    assert full["liglo-down"] == 1 and full["partition"] == 1
    sessions = _run(plan=session_churn)
    applied = sessions.observables["faults_applied"]
    assert applied == dict(sessions.injector.applied)
    assert applied["node-crash"] >= 1
    assert "liglo-down" not in applied and "partition" not in applied


def test_base_node_never_churns():
    seen = []

    def plan(names, rate, seed):
        seen.append(list(names))
        return churn_outage_partition(names, rate, seed)

    run = _run(rate=1.0, plan=plan)
    base = run.deployment.base
    assert base.name not in seen[0]
    assert seen[0] == [node.name for node in run.deployment.nodes[1:]]
    assert run.observables["faults_applied"]["node-crash"] == NODE_COUNT - 1
    assert base.host.online


def test_too_few_nodes_rejected():
    with pytest.raises(ValueError, match=">= 3 nodes"):
        churned_run(2, SMOKE, 0.0, KEYWORDS, lambda deployment: None, session_churn)

