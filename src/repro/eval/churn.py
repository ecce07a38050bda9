"""Recall under churn: the figure the paper could not run.

The paper *argues* that self-reconfiguration keeps a BestPeer network
useful while peers come and go; this experiment measures it.  A base
node issues repeated queries while a :class:`~repro.faults.FaultPlan`
crashes and restarts a ``rate`` fraction of the other nodes (plus, at
nonzero rates, a bounded LIGLO outage and a transient partition).  The
y-axis is *recall*: the fraction of the network's matching objects that
actually arrive.  BPR (MaxCount reconfiguration) is compared against
BPS (static peers) across churn rates 0–50%, with ``BPR+RF2`` (BPR
plus rf=2 replication) as the overlay series.

A (scheme, rate) point replays bit-identically from the params seed
(see :mod:`repro.eval.sweep`): same recall series, same bytes on the
wire, same drop counters, on every run.
"""

from __future__ import annotations

from operator import itemgetter

from repro.eval.experiment import FigureResult
from repro.eval.figures import SCHEME_BPR, SCHEME_BPS, FigureParams
from repro.eval.report import format_counts
from repro.eval.sweep import (
    CHURN_HORIZON,
    churn_outage_partition,
    churned_run,
    mean_recall,
    share_one_match_each,
    sweep_figure,
)
from repro.replication import ReplicationPolicy
from repro.workloads.corpus import KeywordCorpus

#: Overlay series: BPR reconfiguration plus rf=2 replication.
SCHEME_BPR_RF2 = "BPR+RF2"

#: Overlay size and the churn rates swept.
NODE_COUNT = 16
CHURN_RATES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)

#: The CLI's per-trial table: the graceful-degradation observables
#: behind each mean-recall number.
TRIAL_COLUMNS = (
    ("scheme", "scheme"),
    ("rate", "rate"),
    ("recall", "mean_recall"),
    ("degraded", "degraded_queries"),
    ("suspects", "suspect_peers"),
    ("drops", lambda trial: format_counts(trial["drops_by_reason"])),
    ("faults", lambda trial: format_counts(trial["faults_applied"])),
)


def churn_trial(task: tuple[str, float, FigureParams]) -> dict:
    """One (scheme, churn rate) point, rebuilt from its task tuple."""
    scheme, rate, params = task
    keyword = KeywordCorpus(params.corpus_size).keyword(0)
    run = churned_run(
        NODE_COUNT,
        params,
        rate,
        keywords=[keyword] * params.queries,
        populate=lambda deployment: share_one_match_each(deployment, keyword),
        plan=churn_outage_partition,
        strategy="static" if scheme == SCHEME_BPS else "maxcount",
        replication=ReplicationPolicy(rf=2 if scheme == SCHEME_BPR_RF2 else 1),
    )
    expected = NODE_COUNT - 1
    # The replication overlay dedups by answer content: RF > 1 means two
    # live copies may both respond, and counting both would let recall
    # exceed what the network actually holds.
    if scheme == SCHEME_BPR_RF2:
        recalls = [
            round(min(handle.distinct_answer_count, expected) / expected, 6)
            for handle in run.handles
        ]
    else:
        recalls = [
            round(handle.network_answer_count / expected, 6) for handle in run.handles
        ]
    return {
        "scheme": scheme,
        "rate": rate,
        "recalls": recalls,
        "mean_recall": mean_recall(recalls),
        "answer_hops": sorted(
            answer.hops for handle in run.handles for answer in handle.answers
        ),
        "suspect_peers": sum(
            len(node.peers.suspect_bpids()) for node in run.deployment.nodes
        ),
        **run.observables,
    }


def figure_churn(params: FigureParams) -> FigureResult:
    """Recall vs. churn rate: BPR against BPS, and the ``BPR+RF2``
    overlay (BPR plus rf=2 replication).

    The plotted series carry mean recall; the per-point drop counters,
    fault counts and traffic split ride along as ``result.trials``.
    """
    return sweep_figure(
        churn_trial,
        ((SCHEME_BPS, SCHEME_BPR, SCHEME_BPR_RF2), CHURN_RATES),
        params,
        series=itemgetter("scheme"),
        x="rate",
        y="mean_recall",
        figure="churn",
        title=f"Recall under churn ({NODE_COUNT} nodes, {params.queries} queries)",
        x_label="churn rate",
        y_label="mean recall",
        notes=(
            "seeded fault plan: session churn over "
            f"{CHURN_HORIZON}s; nonzero rates add a LIGLO outage and a "
            "transient partition"
        ),
    )
