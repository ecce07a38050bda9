"""Recall under churn with replication — resilience, not just survival.

The churn figure shows a reconfigurable network *degrading gracefully*:
recall falls as owners crash, because every object lives on exactly one
node.  This figure prices the fix.  A base node runs a Zipf(1.0)-skewed
query workload over per-node distinct objects while a seeded churn plan
crashes and restarts the owners; three schemes share the identical
workload and fault timeline:

* ``RF1`` — the paper's single-copy behaviour (baseline);
* ``RF2`` — every object materialises one extra replica at share time;
* ``RF2+cache`` — RF2 plus hotness promotion (``hot_rf=3``) and the
  initiator's invalidation-coherent result cache.

Recall is binary per query — did *any* copy of the queried object
answer? — with the :attr:`~repro.core.query.QueryHandle.distinct_answer_count`
dedup, so RF > 1 never double-counts.  Bytes per query (counted from
just before the first query) shows what the extra copies cost on the
wire and what the cache claws back on Zipf-hot repeats.

Unlike the churn figure's fault plan, churn here is sessions only (no
LIGLO outage, no partition): the claim under test is *owner death*, and
replicas on live holders cannot answer across a partition no scheme
could cross.

The Zipf draw derives from the params seed like everything else (see
:mod:`repro.eval.sweep`), so every point replays bit-identically.
"""

from __future__ import annotations

from operator import itemgetter

from repro.eval.experiment import FigureResult
from repro.eval.figures import FigureParams
from repro.eval.report import format_counts, replication_stats
from repro.eval.sweep import (
    CHURN_HORIZON,
    churned_run,
    mean_recall,
    session_churn,
    sweep_figure,
)
from repro.replication import ReplicationPolicy
from repro.workloads.corpus import KeywordCorpus
from repro.workloads.queries import QueryWorkload

#: The per-node policy each scheme runs under.
POLICIES = {
    "RF1": ReplicationPolicy(),
    "RF2": ReplicationPolicy(rf=2),
    "RF2+cache": ReplicationPolicy(rf=2, hot_rf=3, cache_capacity=32),
}
#: Overlay size and the churn rates swept.
NODE_COUNT = 16
CHURN_RATES = (0.0, 0.3, 0.5)

#: Zipf skew of the query stream — the classic content-popularity model;
#: repeats concentrate on low-index objects, which is what the hot
#: promotion and the result cache exist to exploit.
QUERY_SKEW = 1.0

#: Queries per trial: recall is binary per query, so the floor keeps the
#: mean meaningful even under quick smoke params.
MIN_QUERIES = 16

#: Payload bytes of every shared object.
OBJECT_BYTES = 256


def _cache_cell(trial: dict) -> str:
    rep = trial["replication"]
    return f"{rep['cache_hits']}/{rep['cache_hits'] + rep['cache_misses']}"


#: The CLI's per-trial table: mean recall next to bytes per query,
#: replica answers (queries a holder saved after the owner died), cache
#: hits, and the faults actually applied.
TRIAL_COLUMNS = (
    ("scheme", "scheme"),
    ("rate", "rate"),
    ("recall", "mean_recall"),
    ("bytes/query", "bytes_per_query"),
    ("replicas", lambda trial: trial["replication"]["replicas_held"]),
    ("replica answers", lambda trial: trial["replication"]["replica_answers"]),
    ("cache hits", _cache_cell),
    ("repairs", lambda trial: trial["replication"]["stale_repairs"]),
    ("faults", lambda trial: format_counts(trial["faults_applied"])),
)

#: Per-node replication counters summed into each trial.
STATS_KEYS = (
    "replicas_held",
    "replica_answers",
    "replicas_pushed",
    "invalidations",
    "stale_repairs",
    "cache_hits",
    "cache_misses",
)


def replication_trial(task: tuple[str, float, FigureParams]) -> dict:
    """One (scheme, churn rate) point, rebuilt from its task tuple."""
    scheme, rate, params = task
    # One distinct object per non-base node: object i (and only it)
    # matches keyword i, so per-query recall is a crisp 0/1.
    corpus = KeywordCorpus(NODE_COUNT - 1)

    def populate(deployment) -> None:
        for index, node in enumerate(deployment.nodes[1:], 1):
            node.share_many(
                [
                    (
                        [corpus.keyword(index - 1)],
                        index.to_bytes(4, "big") * (OBJECT_BYTES // 4),
                    )
                ]
            )
        deployment.sim.run()  # replica offer/accept/push handshakes settle

    run = churned_run(
        NODE_COUNT,
        params,
        rate,
        keywords=QueryWorkload(corpus, skew=QUERY_SKEW, seed=params.seed).keywords(
            max(MIN_QUERIES, params.queries)
        ),
        populate=populate,
        # Sessions only — no LIGLO outage, no partition: owner death is
        # the failure mode replicas answer for.
        plan=session_churn,
        strategy="maxcount",
        replication=POLICIES[scheme],
    )
    # Binary recall with replica dedup: any one copy answering counts
    # exactly once; extra copies never inflate the score.
    recalls = [1 if handle.distinct_answer_count >= 1 else 0 for handle in run.handles]
    totals = replication_stats(run.deployment.nodes)
    return {
        "scheme": scheme,
        "rate": rate,
        "recalls": recalls,
        "mean_recall": mean_recall(recalls),
        "queries": len(run.handles),
        "cached_queries": sum(1 for handle in run.handles if handle.served_from_cache),
        "replication": {key: totals[key] for key in STATS_KEYS},
        **run.observables,
    }


def figure_replication(params: FigureParams) -> FigureResult:
    """Mean recall vs churn rate, one series per replication scheme.

    The plotted series carry recall; bytes/messages per query, cache hit
    counts, repair counts and fault counts ride along as
    ``result.trials``.
    """
    return sweep_figure(
        replication_trial,
        (tuple(POLICIES), CHURN_RATES),
        params,
        series=itemgetter("scheme"),
        x="rate",
        y="mean_recall",
        figure="replication",
        title=(
            f"Recall under churn with replication ({NODE_COUNT} nodes, "
            f"Zipf({QUERY_SKEW}) queries)"
        ),
        x_label="churn rate",
        y_label="mean recall",
        notes=(
            "sessions-only seeded churn plan over "
            f"{CHURN_HORIZON}s; binary per-query recall with replica "
            "dedup; bytes per query in trial details"
        ),
    )
