"""Recall vs. traffic across routing strategies — clean and under churn.

The routing-framework comparison the ROADMAP asks for: every registered
:mod:`repro.core.routing` strategy runs the same workload as the churn
figure (a base node queries while each other node holds exactly one
matching object), clean (`rate 0`) and under the PR 4 fault plan
(session churn + LIGLO outage + partition).  Per (strategy, rate) point
the trial records *recall* and the two traffic prices the strategies
trade against it: *messages per query* and *bytes per query*, counted
from just before the first query so store population and registration
don't pollute the comparison (setup traffic is reported separately).

This is where super-peer routing earns its keep: with the hint
directory populated, the search agent ships straight to the holders
with TTL 1 instead of flooding the overlay, cutting messages per query
well below MaxCount at equal recall.

Link-cost tiers derive from the params seed like everything else (see
:mod:`repro.eval.sweep`), so every point replays bit-identically.
"""

from __future__ import annotations

from operator import itemgetter

from repro.core.routing import registered_strategies
from repro.eval.experiment import FigureResult
from repro.eval.figures import FigureParams
from repro.eval.sweep import (
    churn_outage_partition,
    churned_run,
    mean_recall,
    share_one_match_each,
    sweep_figure,
)
from repro.net.link import LinkModel
from repro.util.randomness import derive_rng
from repro.workloads.corpus import KeywordCorpus

#: Overlay size, and the churn rates every registered strategy is
#: measured at (clean + the stress point).
NODE_COUNT = 16
CHURN_RATES = (0.0, 0.3)

#: Latency of the "far" link tier (vs the 0.005 s default) — gives the
#: cost-aware strategy a real gradient to rank on, P4P-style.
FAR_LINK = LinkModel(latency=0.02)

#: Fraction of nodes placed behind far links.
FAR_FRACTION = 0.33


def _apply_link_tiers(deployment, seed: int) -> list[str]:
    """Deterministically place ~1/3 of the nodes behind expensive links.

    Links are per directed address pair, both directions, between every
    host pair that involves a far node.  (A churn rejoin leases a fresh
    address, which falls back to the default link — the tiers price the
    *initial* overlay, which is where selection decisions concentrate.)
    """
    rng = derive_rng(seed, "routing", "links")
    far_nodes = [
        node for node in deployment.nodes[1:] if rng.random() < FAR_FRACTION
    ]
    hosts = [node.host.address for node in deployment.nodes]
    for far in far_nodes:
        far_address = far.host.address
        for address in hosts:
            if address == far_address:
                continue
            deployment.network.set_link(address, far_address, FAR_LINK)
            deployment.network.set_link(far_address, address, FAR_LINK)
    return [node.name for node in far_nodes]


#: The CLI's per-trial table: the recall-vs-traffic trade each strategy
#: makes, plus the hint-directory counters that explain *how* super-peer
#: routing got its number (hits route TTL-1 to holders; fallbacks flood).
TRIAL_COLUMNS = (
    ("strategy", "strategy"),
    ("rate", "rate"),
    ("recall", "mean_recall"),
    ("msgs/query", "messages_per_query"),
    ("bytes/query", "bytes_per_query"),
    ("hint hits", lambda trial: f"{trial['hint_hits']}/{trial['hint_queries']}"),
    ("degraded", "degraded_queries"),
)


def routing_trial(task: tuple[str, float, FigureParams]) -> dict:
    """One (strategy, churn rate) point, rebuilt from its task tuple."""
    strategy, rate, params = task
    keyword = KeywordCorpus(params.corpus_size).keyword(0)

    def populate(deployment) -> list[str]:
        far_nodes = _apply_link_tiers(deployment, params.seed)
        share_one_match_each(deployment, keyword)
        return far_nodes

    run = churned_run(
        NODE_COUNT,
        params,
        rate,
        keywords=[keyword] * params.queries,
        populate=populate,
        plan=churn_outage_partition,
        strategy=strategy,
    )
    expected = NODE_COUNT - 1
    recalls = [
        round(handle.network_answer_count / expected, 6) for handle in run.handles
    ]
    base = run.deployment.base
    return {
        "strategy": strategy,
        "rate": rate,
        "recalls": recalls,
        "mean_recall": mean_recall(recalls),
        "far_nodes": run.populated,
        "hint_queries": base.hint_queries,
        "hint_hits": base.hint_hits,
        "hint_fallbacks": base.hint_fallbacks,
        **run.observables,
    }


def figure_routing(params: FigureParams) -> FigureResult:
    """Recall vs. churn rate for every registered routing strategy.

    The plotted series carry mean recall; the traffic observables
    (messages/bytes per query, hint-directory counters, drop and fault
    counts) ride along as ``result.trials``.
    """
    return sweep_figure(
        routing_trial,
        (tuple(registered_strategies()), CHURN_RATES),
        params,
        series=itemgetter("strategy"),
        x="rate",
        y="mean_recall",
        figure="routing",
        title=(
            f"Routing strategies: recall vs traffic ({NODE_COUNT} nodes, "
            f"{params.queries} queries)"
        ),
        x_label="churn rate",
        y_label="mean recall",
        notes=(
            "per-strategy traffic (messages/bytes per query) in trial "
            "details; seeded fault plan as the churn figure; ~1/3 of the "
            "nodes sit behind 4x-latency links (cost-aware gradient)"
        ),
    )
