"""Bytes-on-wire vs answer quality for in-network top-k — the TTL x k sweep.

The in-network top-k merge (``BestPeerConfig.top_k``) promises that
dominated answers die at the hop that sees them instead of riding home
to the initiator.  This figure prices that promise: the same workload —
a base node querying an overlay where every other node holds several
matching objects with a TF score gradient — runs exhaustively
(``k=None``) and with bounded accumulators (``k=4``, ``k=16``) across a
TTL sweep, clean and under the PR 4 churn plan.  Per point the trial
records bytes and messages per query (counted from just before the
first query, so store population and registration are excluded) next to
the answer *quality*: the score mass retrieved by
:meth:`QueryHandle.top_answers` over the score mass of the true global
top-k, computed by the exhaustive
:func:`~repro.baselines.gnutella.scored_reference` oracle over every
store.  A top-k run earns its traffic cut only at quality no worse than
the exhaustive flood's at the same cutoff.
"""

from __future__ import annotations

from repro.baselines.gnutella import scored_reference
from repro.eval.experiment import FigureResult
from repro.eval.figures import FigureParams
from repro.eval.sweep import churn_outage_partition, churned_run, sweep_figure
from repro.workloads.corpus import KeywordCorpus

#: Overlay size.
NODE_COUNT = 16

#: Accumulator bounds swept against the exhaustive baseline (None).
KS = (4, 16, None)

#: Cutoffs answer quality is scored at: every bounded k.
QUALITY_CUTOFFS = tuple(k for k in KS if k is not None)

#: TTL sweep — shallow floods answer from fewer hops; the traffic cut
#: must hold at every reach.
TTLS = (2, 4, 8)

#: Churn rates (clean + the stress point, as the routing figure).
CHURN_RATES = (0.0, 0.3)

#: Matching objects per non-base node and their payload size.  Pinned
#: (like the routing figure's fill) rather than taken from params: the
#: claim under test lives in the regime where answer payloads dominate
#: query traffic and the network holds many more matches than k — so
#: per-node truncation and threshold dominance both bite.  2 KiB stays
#: under the StorM page-record cap.
MATCHES_PER_NODE = 32
OBJECT_BYTES = 2048


def _label(k: int | None) -> str:
    return "exhaustive" if k is None else f"k={k}"


def _mass(scores, k: int) -> float:
    return sum(sorted(scores, reverse=True)[:k])


def _quality_cell(trial: dict) -> str:
    return "  ".join(
        f"@{cutoff}={value}"
        for cutoff, value in sorted(
            trial["quality"].items(), key=lambda item: int(item[0])
        )
    )


#: The CLI's per-trial table: bytes and messages per query next to the
#: score-mass quality at each swept cutoff, plus the dominated counts
#: that show the pruning happened in-network, not at the initiator.
TRIAL_COLUMNS = (
    ("mode", "label"),
    ("ttl", "ttl"),
    ("rate", "rate"),
    ("answers/q", "answers_per_query"),
    ("dominated/q", "dominated_per_query"),
    ("bytes/query", "bytes_per_query"),
    ("msgs/query", "messages_per_query"),
    ("quality", _quality_cell),
)


def topk_trial(task: tuple) -> dict:
    """One (k, ttl, churn rate) point, rebuilt from its task tuple."""
    k, ttl, rate, params = task
    keyword = KeywordCorpus(params.corpus_size).keyword(0)

    def populate(deployment) -> list:
        # Several matches per non-base node with node-and-object-varying
        # TF scores: the accumulator has real dominance decisions to make.
        for index, node in enumerate(deployment.nodes[1:], 1):
            node.share_many(
                [
                    (
                        [keyword] + ["filler"] * (1 + ((index * 7 + j * 3) % 6)),
                        (index * MATCHES_PER_NODE + j).to_bytes(4, "big")
                        * (OBJECT_BYTES // 4),
                    )
                    for j in range(MATCHES_PER_NODE)
                ]
            )
        # The oracle sees every store before any churn fires: the ideal
        # answer set a lossless exhaustive flood would retrieve.
        return scored_reference(
            [(node.name, node.storm) for node in deployment.nodes], keyword
        )

    run = churned_run(
        NODE_COUNT,
        params,
        rate,
        keywords=[keyword] * params.queries,
        populate=populate,
        plan=churn_outage_partition,
        ttl=ttl,
        top_k=k,
    )
    handles = run.handles
    queries = len(handles)
    reference_scores = [score for score, _label_, _rid in run.populated]
    # Quality at cutoff c: retrieved score mass over the oracle's top-c
    # mass, averaged over queries.  top_answers() re-scores exhaustive
    # items from their tags, so both modes are judged identically.
    quality = {}
    for cutoff in QUALITY_CUTOFFS:
        ideal = _mass(reference_scores, cutoff)
        if not ideal:
            quality[str(cutoff)] = 1.0
            continue
        ratios = [
            min(1.0, sum(s for s, _h, _r in handle.top_answers(cutoff)) / ideal)
            for handle in handles
        ]
        quality[str(cutoff)] = round(sum(ratios) / queries, 6)
    answers = sum(handle.network_answer_count for handle in handles)
    dominated = sum(handle.dominated_dropped for handle in handles)
    digests = sum(len(handle.digests) for handle in handles)
    return {
        "k": k,
        "label": _label(k),
        "ttl": ttl,
        "rate": rate,
        "answers_per_query": round(answers / queries, 3),
        "dominated_per_query": round(dominated / queries, 3),
        "digests_per_query": round(digests / queries, 3),
        "quality": quality,
        "reference_size": len(run.populated),
        **run.observables,
    }


def _series_name(trial: dict) -> str:
    return trial["label"] + ("" if trial["rate"] == 0 else f" churn={trial['rate']}")


def figure_topk(params: FigureParams) -> FigureResult:
    """Bytes per query vs TTL, one series per (k, churn rate).

    The plotted series carry bytes per query; answer quality at every
    swept cutoff, dominated/digest counts, message totals and fault
    counts ride along as ``result.trials``.
    """
    return sweep_figure(
        topk_trial,
        (KS, TTLS, CHURN_RATES),
        params,
        series=_series_name,
        x="ttl",
        y="bytes_per_query",
        figure="topk",
        title=(
            f"In-network top-k: bytes vs TTL ({NODE_COUNT} nodes, "
            f"{MATCHES_PER_NODE} matches/node, {params.queries} queries)"
        ),
        x_label="TTL",
        y_label="bytes per query",
        notes=(
            "answer quality (score-mass ratio vs the exhaustive oracle) "
            "per cutoff in trial details; seeded fault plan as the churn "
            "figure; dominated answers die in-network as digests"
        ),
    )
