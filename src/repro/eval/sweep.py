"""One churned-query trial harness, one parameter grid, for every sweep.

The post-paper figures (``churn``, ``routing``, ``topk``,
``replication``) measure the same thing: a base node issues queries
across :data:`CHURN_HORIZON` simulated seconds while a seeded
:class:`~repro.faults.FaultPlan` crashes and restarts the other nodes.
:func:`churned_run` is that sequence, once; what differs between
figures (config fields, store fill, fault plan, keyword list, recall
arithmetic) is passed in or computed by the caller.

Every sweep point is an independent task: a figure calls a module-level
function on each plain-tuple task in turn.  Deployments are rebuilt from
the task tuple and every stochastic choice (topology, fault timeline,
retry jitter) derives from the params seed, so a point replays
bit-identically whether it runs alone or after others that warmed the
store templates and codec memos.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

from repro.core.builder import BestPeerNetwork, build_network
from repro.core.config import BestPeerConfig
from repro.eval.experiment import FigureResult
from repro.faults import FaultPlan, SimFaultInjector
from repro.topology.builders import random_graph
from repro.util.retry import RetryPolicy

#: Simulated seconds of churn the query workload is spread across.
CHURN_HORIZON = 30.0
#: Quiet period after which a query self-finishes (and reconfigures).
QUERY_QUIET_PERIOD = 2.0
#: Retry policy active during churned runs (tighter than the default so
#: retries resolve inside the horizon).
CHURN_RETRY_POLICY = RetryPolicy(
    max_attempts=3, base_delay=0.25, multiplier=2.0, max_delay=2.0, jitter=0.1
)
#: Everything delivered before this instant — registration, hint
#: publishes, replica pushes — is set-up, not query traffic.
SETUP_DONE_AT = 1.9
#: When the first query is issued; the rest follow at even steps.
FIRST_QUERY_AT = 2.0


def run_tasks(runner, func, tasks: list) -> list:
    """``func`` applied to every task, in task order.

    ``runner`` is ``None`` or an object whose ``map_tasks(func, tasks)``
    does the same, in the same order.  The perf ledger's ``fig5a_paper``
    workload is the one caller that passes one (through
    :func:`~repro.eval.figures.figure_5a`), to read each deployment's
    counters as soon as its task returns.
    """
    if runner is None:
        return [func(task) for task in tasks]
    return runner.map_tasks(func, tasks)


def session_churn(node_names: list[str], rate: float, seed: int) -> FaultPlan:
    """Crash/restart sessions for a ``rate`` fraction of ``node_names``."""
    return FaultPlan.churn(
        node_names, rate, CHURN_HORIZON, seed=seed, min_downtime=2.0, max_downtime=8.0
    )


def churn_outage_partition(node_names: list[str], rate: float, seed: int) -> FaultPlan:
    """Churn sessions plus — when anything churns at all — one LIGLO
    outage and one transient partition, all derived from ``seed``."""
    plan = session_churn(node_names, rate, seed)
    if rate <= 0.0:
        return plan
    half = len(node_names) // 2
    return plan.extended(
        FaultPlan.liglo_outage("liglo-0", CHURN_HORIZON * 0.3, 5.0)
    ).extended(
        FaultPlan.partition_window(
            [node_names[:half], node_names[half:]], CHURN_HORIZON * 0.6, 4.0
        )
    )


def share_one_match_each(deployment: BestPeerNetwork, keyword: str) -> None:
    """One distinct matching object per non-base node: recall is simply
    answers-received over (node_count - 1)."""
    for index, node in enumerate(deployment.nodes[1:], 1):
        node.share_many([([keyword], index.to_bytes(4, "big") * 16)])


def mean_recall(recalls: Sequence[float]) -> float:
    return round(sum(recalls) / len(recalls), 6)


@dataclass
class ChurnedRun:
    """What one :func:`churned_run` leaves behind."""

    deployment: BestPeerNetwork
    #: One :class:`~repro.core.query.QueryHandle` per keyword, in issue order.
    handles: list
    injector: SimFaultInjector
    #: Whatever the caller's populate hook returned.
    populated: object
    #: Set-up/query traffic split, per-query means, drops, degraded
    #: count and faults applied — the keys every trial dict carries.
    observables: dict


def churned_run(
    node_count: int,
    params,
    rate: float,
    keywords: Sequence[str],
    populate: Callable[[BestPeerNetwork], object],
    plan: Callable[[list[str], float, int], FaultPlan],
    **config_fields,
) -> ChurnedRun:
    """Query ``keywords`` from the base node of a seeded degree-3 overlay
    while ``plan(churnable names, rate, seed)`` plays out.

    ``config_fields`` are the :class:`BestPeerConfig` fields the caller
    varies (``strategy``, ``ttl``, ``top_k``, ``replication``);
    ``populate(deployment)`` fills the stores (and may run the kernel to
    let set-up traffic settle) before the plan is armed.
    """
    if node_count < 3:
        raise ValueError(f"a churned run needs >= 3 nodes, got {node_count}")
    config_fields.setdefault("ttl", max(7, node_count))
    config = BestPeerConfig(
        max_direct_peers=8,
        retry_policy=CHURN_RETRY_POLICY,
        suspect_after=2,
        retry_seed=params.seed,
        **config_fields,
    )
    topology = random_graph(node_count, degree=3, seed=params.seed)
    deployment = build_network(node_count, config=config, topology=topology)
    populated = populate(deployment)
    churnable = [node.name for node in deployment.nodes[1:]]  # base never churns
    injector = SimFaultInjector(
        deployment, plan(churnable, rate, params.seed), tracer=deployment.tracer
    )
    injector.arm()
    network = deployment.network
    base = deployment.base
    handles: list = []
    setup = {}

    def mark_setup_done() -> None:
        setup["packets"] = network.packets_delivered
        setup["bytes"] = network.bytes_carried

    def issue(keyword: str) -> None:
        handles.append(base.issue_query(keyword, auto_finish_after=QUERY_QUIET_PERIOD))

    step = CHURN_HORIZON / len(keywords)
    deployment.sim.schedule(SETUP_DONE_AT, mark_setup_done)
    for q, keyword in enumerate(keywords):
        deployment.sim.schedule(FIRST_QUERY_AT + q * step, issue, keyword)
    deployment.sim.run()
    queries = len(handles)
    observables = {
        "setup_packets": setup["packets"],
        "setup_bytes": setup["bytes"],
        "messages_per_query": round(
            (network.packets_delivered - setup["packets"]) / queries, 3
        ),
        "bytes_per_query": round((network.bytes_carried - setup["bytes"]) / queries, 1),
        "packets_delivered": network.packets_delivered,
        "bytes_carried": network.bytes_carried,
        "packets_dropped": network.packets_dropped,
        "drops_by_reason": dict(sorted(network.drops_by_reason.items())),
        "degraded_queries": sum(1 for handle in handles if handle.degraded),
        "faults_applied": dict(sorted(injector.applied.items())),
    }
    return ChurnedRun(deployment, handles, injector, populated, observables)


def sweep_figure(
    run_trial: Callable[[tuple], dict],
    grid: Sequence[Sequence],
    params,
    series: Callable[[dict], str],
    x: str,
    y: str,
    **figure_fields,
) -> FigureResult:
    """Run ``run_trial((*point, params))`` for every point of ``grid`` (first
    axis outermost) and plot ``trial[y]`` against ``trial[x]``, one
    series per ``series(trial)``; the trial dicts ride along as
    ``result.trials``."""
    trials = [run_trial((*point, params)) for point in product(*grid)]
    result = FigureResult(**figure_fields, trials=trials)
    for trial in trials:
        result.add_point(series(trial), trial[x], trial[y])
    return result
