"""The reproduction's claims, as executable checks — one table.

Section 4 makes a set of qualitative claims ("SCS performs worse...",
"BP outperforms Gnutella in all runs").  Each is a :class:`Claim` here:
a quote, the figure it belongs to, and a predicate over the reproduced
:class:`~repro.eval.experiment.FigureResult` (its series and, for the
churned-query figures, its per-trial dicts).

Claims are keyed by what ``python -m repro`` runs: a figure name
(``"5a"``, ``"churn"``) or ``"ablation <name>"``.  Each is tagged:

* ``paper`` — the sixteen statements quoted from Section 4;
* ``extension`` — every other shape the reproduction stands behind:
  the thresholds the paper's plots imply but never state, Figure 7, the
  seven ablations, and the churn, replication, routing and top-k
  figures the paper could not run.

Every claim is judged at the published configuration (each figure's
and ablation's defaults, 1000 x 1 KB objects per node, four queries).
``verify_figure`` checks one key; ``verify_all`` renders the report
``python -m repro verify`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ExperimentError
from repro.eval.analysis import (
    crossover,
    dominates,
    growth_factor,
    is_flat,
    is_monotone_increasing,
)
from repro.eval.experiment import FigureResult


#: A statement quoted from the paper's Section 4.
PAPER = "paper"
#: A shape the reproduction asserts beyond the paper's sixteen quotes.
EXTENSION = "extension"


@dataclass(frozen=True)
class Claim:
    """One verifiable statement about a reproduced figure."""

    claim_id: str
    figure: str
    quote: str
    check: Callable[[FigureResult], bool]
    tag: str = PAPER

    def holds(self, result: FigureResult) -> bool:
        """Evaluate against a reproduced figure (False on any failure,
        including a series or trial too short to carry the evidence)."""
        try:
            return bool(self.check(result))
        except (ExperimentError, LookupError):
            return False


def _scs_degenerates(result: FigureResult) -> bool:
    # Skip the degenerate single-node point (everything is ~0 there).
    positive = [value for value in result.y_values("SCS") if value > 0]
    return len(positive) >= 2 and growth_factor(positive) > 5.0


def _parallel_schemes_beat_scs(result: FigureResult) -> bool:
    mcs = dict(result.series_named("CS"))
    ratios = [
        scs_y / mcs[x]
        for x, scs_y in result.series_named("SCS")
        if x in mcs and mcs[x] > 0
    ]
    # "Significantly" at scale: the larger networks show >2x at least.
    return len(ratios) >= 2 and all(ratio > 2.0 for ratio in ratios[2:])


def _mcs_gain_not_significant(result: FigureResult) -> bool:
    return all(
        abs(m - b) <= 0.15 * max(m, b, 1e-12)
        for m, b in zip(result.y_values("CS"), result.y_values("BPS"))
    )


def _bps_equals_bpr_on_star(result: FigureResult) -> bool:
    return all(
        abs(left - right) <= 0.05 * max(left, right, 1e-12)
        for left, right in zip(result.y_values("BPS"), result.y_values("BPR"))
    )


def _cs_wins_level_1(result: FigureResult) -> bool:
    return result.y_values("CS")[0] < result.y_values("BPS")[0]


def _cs_degenerates_with_depth(result: FigureResult) -> bool:
    cs = result.y_values("CS")
    bps = result.y_values("BPS")
    return cs[-1] > bps[-1] and growth_factor(cs) > growth_factor(bps)


def _bpr_best_bp_scheme(result: FigureResult) -> bool:
    return dominates(result, "BPR", "BPS", slack=0.02)


def _bpr_beats_cs_except_tiny(result: FigureResult) -> bool:
    cross = crossover(result, "CS", "BPR")
    return cross is not None and cross <= result.series_named("CS")[1][0]


def _cs_fast_first_slow_tail(result: FigureResult) -> bool:
    cs = result.series_named("CS")
    bps = result.series_named("BPS")
    return cs[0][1] <= bps[0][1] and cs[-1][1] > bps[-1][1]


def _gnutella_flat_across_runs(result: FigureResult) -> bool:
    return is_flat(result.y_values("Gnutella"), tolerance=0.1)


def _bp_first_run_highest(result: FigureResult) -> bool:
    bp = result.y_values("BP")
    return bp[0] > bp[1] and bp[0] > bp[-1]


def _bp_beats_gnutella_all_runs(result: FigureResult) -> bool:
    return dominates(result, "BP", "Gnutella") and all(
        b < g for b, g in zip(result.y_values("BP"), result.y_values("Gnutella"))
    )


def _both_improve_with_peers(result: FigureResult) -> bool:
    bp = result.y_values("BP")
    gnutella = result.y_values("Gnutella")
    return bp[-1] < bp[0] and gnutella[-1] < gnutella[0]


def _bp_remains_superior(result: FigureResult) -> bool:
    return all(
        b < g for b, g in zip(result.y_values("BP"), result.y_values("Gnutella"))
    )


def _at(result: FigureResult, name: str, x: float) -> float:
    """Series ``name``'s y at ``x``."""
    for point_x, y in result.series_named(name):
        if point_x == x:
            return y
    raise ExperimentError(f"series {name!r} has no point at x={x}")


def _top_x(result: FigureResult, name: str) -> float:
    """The last swept x of series ``name`` (the highest churn rate)."""
    return max(x for x, _ in result.series_named(name))


def _trials(result: FigureResult, **keys) -> list[dict]:
    """The trial dicts whose fields equal ``keys`` (at least one)."""
    found = [
        trial
        for trial in result.trials
        if all(trial.get(field) == value for field, value in keys.items())
    ]
    if not found:
        raise ExperimentError(f"no trial with {keys}")
    return found


def _trial(result: FigureResult, **keys) -> dict:
    return _trials(result, **keys)[0]


def _plan_fired(trials: list[dict], outage: bool = True) -> bool:
    """Every trial crashed a node (and, with ``outage``, took LIGLO down
    once and partitioned once)."""
    for trial in trials:
        applied = trial["faults_applied"]
        if applied.get("node-crash", 0) < 1:
            return False
        if outage and (
            applied.get("liglo-down", 0) != 1 or applied.get("partition", 0) != 1
        ):
            return False
    return True


def _scs_over_5x_mcs(result: FigureResult) -> bool:
    return result.y_values("SCS")[-1] > 5 * result.y_values("CS")[-1]


def _cs_monotone_with_depth(result: FigureResult) -> bool:
    return is_monotone_increasing(result.y_values("CS"))


def _cs_wins_smallest_loses_largest(result: FigureResult) -> bool:
    cs = result.y_values("CS")
    bpr = result.y_values("BPR")
    return cs[0] < bpr[0] and cs[-1] > bpr[-1]


def _every_scheme_returns_every_answer(result: FigureResult) -> bool:
    cs, bps, bpr = (result.series_named(name) for name in ("CS", "BPS", "BPR"))
    return cs[-1][1] == bps[-1][1] == bpr[-1][1]


def _cs_first_answer_earliest(result: FigureResult) -> bool:
    return result.series_named("CS")[0][0] <= result.series_named("BPS")[0][0]


def _cs_last_answer_latest(result: FigureResult) -> bool:
    return result.series_named("CS")[-1][0] > result.series_named("BPS")[-1][0]


def _bpr_last_answer_no_later(result: FigureResult) -> bool:
    bpr_last = result.series_named("BPR")[-1][0]
    return bpr_last <= result.series_named("BPS")[-1][0] * 1.02


def _bp_settles_after_first_run(result: FigureResult) -> bool:
    bp = result.y_values("BP")
    return bp[1] >= bp[2] * 0.95


def _churn_healthy_in_full(result: FigureResult) -> bool:
    return _at(result, "BPR", 0.0) == 1.0 and _at(result, "BPS", 0.0) == 1.0


def _churn_hurts(result: FigureResult) -> bool:
    top = _top_x(result, "BPR")
    return _at(result, "BPR", top) < 1.0 and _at(result, "BPS", top) < 1.0


def _churn_bpr_no_worse(result: FigureResult) -> bool:
    top = _top_x(result, "BPR")
    return _at(result, "BPR", top) >= _at(result, "BPS", top)


def _churn_rf2_no_worse(result: FigureResult) -> bool:
    return all(
        rf2 >= _at(result, "BPR", rate)
        for rate, rf2 in result.series_named("BPR+RF2")
    )


def _churn_plan_fired(result: FigureResult) -> bool:
    return _plan_fired(_trials(result, rate=_top_x(result, "BPR")))


def _replication_healthy_in_full(result: FigureResult) -> bool:
    return all(
        _at(result, scheme, 0.0) == 1.0 for scheme in ("RF1", "RF2", "RF2+cache")
    )


def _replicated_recall_at_30(result: FigureResult) -> bool:
    return _at(result, "RF2", 0.3) >= 0.95 and _at(result, "RF2+cache", 0.3) >= 0.95


def _single_copy_degrades_at_30(result: FigureResult) -> bool:
    rf1 = _at(result, "RF1", 0.3)
    return rf1 < _at(result, "RF2", 0.3) and rf1 < _at(result, "RF2+cache", 0.3)


def _replicas_and_cache_answered(result: FigureResult) -> bool:
    rf2 = _trial(result, scheme="RF2", rate=0.3)["replication"]
    cached = _trial(result, scheme="RF2+cache", rate=0.3)["replication"]
    return rf2["replica_answers"] > 0 and cached["cache_hits"] > 0


def _replication_bytes(result: FigureResult, scheme: str, rate: float) -> float:
    return _trial(result, scheme=scheme, rate=rate)["bytes_per_query"]


def _replication_overhead_bounded(result: FigureResult) -> bool:
    return all(
        _replication_bytes(result, "RF2", rate)
        <= 1.5 * _replication_bytes(result, "RF1", rate)
        for rate, _ in result.series_named("RF1")
    )


def _cache_saves_bytes(result: FigureResult) -> bool:
    return all(
        _replication_bytes(result, "RF2+cache", rate)
        < _replication_bytes(result, "RF2", rate)
        for rate, _ in result.series_named("RF2")
    )


def _replication_plan_fired(result: FigureResult) -> bool:
    top = _top_x(result, "RF1")
    return all(
        _plan_fired(_trials(result, scheme=scheme, rate=top), outage=False)
        for scheme in ("RF1", "RF2", "RF2+cache")
    )


def _routing_paper_strategies_in_full(result: FigureResult) -> bool:
    return _at(result, "maxcount", 0.0) == 1.0 and _at(result, "static", 0.0) == 1.0


def _superpeer_vs_maxcount(result: FigureResult) -> list[tuple[dict, dict]]:
    return [
        (
            _trial(result, strategy="superpeer", rate=rate),
            _trial(result, strategy="maxcount", rate=rate),
        )
        for rate, _ in result.series_named("superpeer")
    ]


def _superpeer_recall_no_worse(result: FigureResult) -> bool:
    return all(
        sp["mean_recall"] >= mc["mean_recall"]
        for sp, mc in _superpeer_vs_maxcount(result)
    )


def _superpeer_cheaper(result: FigureResult) -> bool:
    return all(
        sp["messages_per_query"] < mc["messages_per_query"]
        and sp["bytes_per_query"] < mc["bytes_per_query"]
        for sp, mc in _superpeer_vs_maxcount(result)
    )


def _hint_directory_answered(result: FigureResult) -> bool:
    return all(sp["hint_hits"] >= 1 for sp, _ in _superpeer_vs_maxcount(result))


def _routing_plan_fired(result: FigureResult) -> bool:
    top = _top_x(result, "maxcount")
    return all(
        _plan_fired(_trials(result, strategy=strategy, rate=top))
        for strategy in ("maxcount", "superpeer", "history", "costaware")
    )


#: The bounded accumulators the top-k claims are about.
TOPK_BOUNDS = (4, 16)


def _topk_halves_bytes(result: FigureResult) -> bool:
    exhaustive = _trial(result, k=None, ttl=8, rate=0.0)["bytes_per_query"]
    return all(
        _trial(result, k=k, ttl=8, rate=0.0)["bytes_per_query"] * 2 <= exhaustive
        for k in TOPK_BOUNDS
    )


def _topk_quality_no_worse(result: FigureResult) -> bool:
    exhaustive = _trial(result, k=None, ttl=8, rate=0.0)["quality"]
    return all(
        _trial(result, k=k, ttl=8, rate=0.0)["quality"][str(k)] >= exhaustive[str(k)]
        for k in TOPK_BOUNDS
    )


def _dominated_answers_died(result: FigureResult) -> bool:
    return all(
        bounded["dominated_per_query"] > 0 and bounded["digests_per_query"] > 0
        for bounded in (_trial(result, k=k, ttl=8, rate=0.0) for k in TOPK_BOUNDS)
    )


def _topk_never_costs_bytes(result: FigureResult) -> bool:
    return all(
        _trial(result, k=k, ttl=flood["ttl"], rate=flood["rate"])["bytes_per_query"]
        <= flood["bytes_per_query"]
        for flood in _trials(result, k=None)
        for k in TOPK_BOUNDS
    )


def _topk_plan_fired(result: FigureResult) -> bool:
    top = max(trial["rate"] for trial in result.trials)
    return _plan_fired(_trials(result, k=4, ttl=8, rate=top), outage=False)


def _reconfiguring_strategies_beat_static(result: FigureResult) -> bool:
    static = result.y_values("static")[-1]
    return (
        result.y_values("maxcount")[-1] < static
        and result.y_values("minhops")[-1] < static
    )


def _maxcount_drops_after_run_1(result: FigureResult) -> bool:
    maxcount = result.y_values("maxcount")
    return maxcount[-1] < maxcount[0]


def _ttl_caps_coverage(result: FigureResult) -> bool:
    responders = result.y_values("responders")
    return is_monotone_increasing(responders) and responders[-1] == 15


def _completion_grows_with_ttl(result: FigureResult) -> bool:
    completion = result.y_values("completion (s)")
    return completion[0] < completion[-1]


def _metadata_no_later(result: FigureResult) -> bool:
    return sum(result.y_values("metadata")) <= sum(result.y_values("direct")) * 1.02


def _mru_beats_lru(result: FigureResult) -> bool:
    return result.y_values("mru")[-1] < result.y_values("lru")[-1]


def _replicas_speed_first_answer(result: FigureResult) -> bool:
    first = result.y_values("first answer (s)")
    return first[-1] <= first[0]


def _code_cheaper_first(result: FigureResult) -> bool:
    return result.y_values("always-code")[0] < result.y_values("always-data")[0]


def _data_amortizes(result: FigureResult) -> bool:
    return result.y_values("always-data")[-1] < result.y_values("always-code")[-1]


def _code_crosses_data(result: FigureResult) -> bool:
    crossing = crossover(result, "always-code", "always-data")
    return crossing is not None and crossing > 1


def _adaptive_ends_on_winning_side(result: FigureResult) -> bool:
    return result.y_values("adaptive")[-1] <= result.y_values("always-code")[-1]


#: Every claim, keyed by the ``repro figure`` name or ``"ablation <name>"``
#: whose result carries its evidence.
CLAIMS: dict[str, tuple[Claim, ...]] = {
    "5a": (
        Claim(
            "5a-scs",
            "Figure 5(a)",
            "the Single-Thread CS performs worse than the other models",
            _scs_degenerates,
        ),
        Claim(
            "5a-parallel",
            "Figure 5(a)",
            "both MCS and BP-based schemes outperform SCS significantly",
            _parallel_schemes_beat_scs,
        ),
        Claim(
            "5a-mcs",
            "Figure 5(a)",
            "MCS is slightly better than BPS/BPR but the gain is not "
            "significant enough to be visible",
            _mcs_gain_not_significant,
        ),
        Claim(
            "5a-static",
            "Figure 5(a)",
            "BPS and BPR show similar performance (nothing to reconfigure)",
            _bps_equals_bpr_on_star,
        ),
        Claim(
            "5a-scs-5x",
            "Figure 5(a)",
            "at the largest network SCS takes over 5x as long as MCS",
            _scs_over_5x_mcs,
            EXTENSION,
        ),
    ),
    "5b": (
        Claim(
            "5b-level1",
            "Figure 5(b)",
            "when the number of levels is 1, CS is superior",
            _cs_wins_level_1,
        ),
        Claim(
            "5b-depth",
            "Figure 5(b)",
            "as the number of levels increases, CS begans to degenerate",
            _cs_degenerates_with_depth,
        ),
        Claim(
            "5b-bpr",
            "Figure 5(b)",
            "BPR outperforms BPS by virtue of ... a more optimal network",
            _bpr_best_bp_scheme,
        ),
        Claim(
            "5b-cs-monotone",
            "Figure 5(b)",
            "CS never gets faster as the tree deepens",
            _cs_monotone_with_depth,
            EXTENSION,
        ),
    ),
    "5c": (
        Claim(
            "5c-bpr",
            "Figure 5(c)",
            "BPR is the best",
            _bpr_best_bp_scheme,
        ),
        Claim(
            "5c-crossover",
            "Figure 5(c)",
            "BPR outperforms CS for most cases (except when the number "
            "of nodes is very small)",
            _bpr_beats_cs_except_tiny,
        ),
        Claim(
            "5c-ends",
            "Figure 5(c)",
            "CS beats BPR on the 2-node line and loses to it on the longest",
            _cs_wins_smallest_loses_largest,
            EXTENSION,
        ),
    ),
    "6": (
        Claim(
            "6-bpr",
            "Figure 6",
            "BPR is still the best scheme, outperforming BPS",
            _bpr_best_bp_scheme,
        ),
        Claim(
            "6-cs-tail",
            "Figure 6",
            "except for the first few nodes, CS returns answers much "
            "slower than BPR/BPS",
            _cs_fast_first_slow_tail,
        ),
    ),
    "7": (
        Claim(
            "7-complete",
            "Figure 7",
            "every scheme eventually returns every answer",
            _every_scheme_returns_every_answer,
            EXTENSION,
        ),
        Claim(
            "7-cs-first",
            "Figure 7",
            "CS returns the first few answers much faster than BPS and BPR",
            _cs_first_answer_earliest,
            EXTENSION,
        ),
        Claim(
            "7-cs-tail",
            "Figure 7",
            "as more answers are returned, BPS/BPR are superior over CS",
            _cs_last_answer_latest,
            EXTENSION,
        ),
        Claim(
            "7-bpr",
            "Figure 7",
            "BPR is generally better than BPS (its last answer within 2%)",
            _bpr_last_answer_no_later,
            EXTENSION,
        ),
    ),
    "8a": (
        Claim(
            "8a-flat",
            "Figure 8(a)",
            "Gnutella is essentially not affected by the number of times "
            "the query is run",
            _gnutella_flat_across_runs,
        ),
        Claim(
            "8a-first",
            "Figure 8(a)",
            "for the first search, BP also need to route through the "
            "entire intermediate peers (first run is the highest)",
            _bp_first_run_highest,
        ),
        Claim(
            "8a-wins",
            "Figure 8(a)",
            "BP outperforms Gnutella in all runs",
            _bp_beats_gnutella_all_runs,
        ),
        Claim(
            "8a-settled",
            "Figure 8(a)",
            "after the first search, reconfiguration connects BP straight "
            "to the nodes with answers (run 2 within 5% of run 3)",
            _bp_settles_after_first_run,
            EXTENSION,
        ),
    ),
    "8b": (
        Claim(
            "8b-improve",
            "Figure 8(b)",
            "Gnutella's performance also improves with more peers",
            _both_improve_with_peers,
        ),
        Claim(
            "8b-superior",
            "Figure 8(b)",
            "as the number of directly connected peers increases, BP "
            "remains superior",
            _bp_remains_superior,
        ),
    ),
    "churn": (
        Claim(
            "churn-healthy",
            "Churn figure",
            "with no churn, BPR and BPS both recall every answer",
            _churn_healthy_in_full,
            EXTENSION,
        ),
        Claim(
            "churn-hurts",
            "Churn figure",
            "at the highest churn rate both BPR and BPS lose answers",
            _churn_hurts,
            EXTENSION,
        ),
        Claim(
            "churn-bpr",
            "Churn figure",
            "under the highest churn, reconfiguring BPR recalls no less "
            "than static BPS",
            _churn_bpr_no_worse,
            EXTENSION,
        ),
        Claim(
            "churn-rf2",
            "Churn figure",
            "rf=2 replication on top of BPR never recalls less than BPR "
            "alone",
            _churn_rf2_no_worse,
            EXTENSION,
        ),
        Claim(
            "churn-faults",
            "Churn figure",
            "at the highest rate the fault plan crashed nodes, took LIGLO "
            "down once and partitioned the network once",
            _churn_plan_fired,
            EXTENSION,
        ),
    ),
    "replication": (
        Claim(
            "replication-healthy",
            "Replication figure",
            "with no churn every replication scheme recalls 1.0",
            _replication_healthy_in_full,
            EXTENSION,
        ),
        Claim(
            "replication-resilient",
            "Replication figure",
            "at 30% churn RF2 and RF2+cache each keep recall >= 0.95",
            _replicated_recall_at_30,
            EXTENSION,
        ),
        Claim(
            "replication-rf1",
            "Replication figure",
            "at 30% churn single-copy RF1 recalls less than either "
            "replicated scheme",
            _single_copy_degrades_at_30,
            EXTENSION,
        ),
        Claim(
            "replication-answered",
            "Replication figure",
            "replica holders answered for dead owners and the hot-query "
            "cache hit",
            _replicas_and_cache_answered,
            EXTENSION,
        ),
        Claim(
            "replication-overhead",
            "Replication figure",
            "RF2 spends at most 1.5x the RF1 bytes per query at every rate",
            _replication_overhead_bounded,
            EXTENSION,
        ),
        Claim(
            "replication-cache-bytes",
            "Replication figure",
            "the result cache spends fewer bytes per query than plain RF2 "
            "at every rate",
            _cache_saves_bytes,
            EXTENSION,
        ),
        Claim(
            "replication-faults",
            "Replication figure",
            "at the highest rate the churn plan crashed nodes under every "
            "scheme",
            _replication_plan_fired,
            EXTENSION,
        ),
    ),
    "routing": (
        Claim(
            "routing-healthy",
            "Routing figure",
            "MaxCount and static routing still recall every answer on a "
            "healthy network",
            _routing_paper_strategies_in_full,
            EXTENSION,
        ),
        Claim(
            "routing-superpeer-recall",
            "Routing figure",
            "super-peer routing recalls no less than MaxCount, clean and "
            "under churn",
            _superpeer_recall_no_worse,
            EXTENSION,
        ),
        Claim(
            "routing-superpeer-traffic",
            "Routing figure",
            "super-peer routing sends fewer messages and bytes per query "
            "than MaxCount, clean and under churn",
            _superpeer_cheaper,
            EXTENSION,
        ),
        Claim(
            "routing-hints",
            "Routing figure",
            "the super-peer hint directory answered at every rate",
            _hint_directory_answered,
            EXTENSION,
        ),
        Claim(
            "routing-faults",
            "Routing figure",
            "at the churn point the fault plan crashed nodes, took LIGLO "
            "down once and partitioned the network once",
            _routing_plan_fired,
            EXTENSION,
        ),
    ),
    "topk": (
        Claim(
            "topk-bytes",
            "Top-k figure",
            "at TTL 8 on a healthy network, k=4 and k=16 each at least "
            "halve the exhaustive bytes per query",
            _topk_halves_bytes,
            EXTENSION,
        ),
        Claim(
            "topk-quality",
            "Top-k figure",
            "k=4 and k=16 lose no top-k answer quality against the "
            "exhaustive run at the same cutoff",
            _topk_quality_no_worse,
            EXTENSION,
        ),
        Claim(
            "topk-pruning",
            "Top-k figure",
            "dominated answers die in-network as digests",
            _dominated_answers_died,
            EXTENSION,
        ),
        Claim(
            "topk-never-costs",
            "Top-k figure",
            "a bounded accumulator never spends more bytes than the "
            "exhaustive flood, at any TTL or churn rate",
            _topk_never_costs_bytes,
            EXTENSION,
        ),
        Claim(
            "topk-faults",
            "Top-k figure",
            "at the churn point the fault plan crashed nodes",
            _topk_plan_fired,
            EXTENSION,
        ),
    ),
    "ablation strategy": (
        Claim(
            "A1-reconfigure",
            "Ablation A1",
            "MaxCount and MinHops both end below static peers",
            _reconfiguring_strategies_beat_static,
            EXTENSION,
        ),
        Claim(
            "A1-drop",
            "Ablation A1",
            "MaxCount's completion drops after the first run",
            _maxcount_drops_after_run_1,
            EXTENSION,
        ),
    ),
    "ablation ttl": (
        Claim(
            "A3-coverage",
            "Ablation A3",
            "responders grow with the TTL until all 15 answer",
            _ttl_caps_coverage,
            EXTENSION,
        ),
        Claim(
            "A3-completion",
            "Ablation A3",
            "completion grows with coverage",
            _completion_grows_with_ttl,
            EXTENSION,
        ),
    ),
    "ablation result-mode": (
        Claim(
            "A4-metadata",
            "Ablation A4",
            "metadata-only answers complete no later than direct answers",
            _metadata_no_later,
            EXTENSION,
        ),
    ),
    "ablation buffer": (
        Claim(
            "A5-mru",
            "Ablation A5",
            "under repeated scans MRU ends below LRU",
            _mru_beats_lru,
            EXTENSION,
        ),
    ),
    "ablation replication": (
        Claim(
            "A6-first-answer",
            "Ablation A6",
            "more replicas bring the first answer no later",
            _replicas_speed_first_answer,
            EXTENSION,
        ),
    ),
    "ablation shipping": (
        Claim(
            "A7-code-first",
            "Ablation A7",
            "code-shipping is cheaper for the first query",
            _code_cheaper_first,
            EXTENSION,
        ),
        Claim(
            "A7-amortizes",
            "Ablation A7",
            "data-shipping is cheaper cumulatively by the last query",
            _data_amortizes,
            EXTENSION,
        ),
        Claim(
            "A7-crossover",
            "Ablation A7",
            "cumulative code-shipping cost crosses data-shipping after "
            "query 1",
            _code_crosses_data,
            EXTENSION,
        ),
        Claim(
            "A7-adaptive",
            "Ablation A7",
            "the adaptive policy ends no worse than always shipping code",
            _adaptive_ends_on_winning_side,
            EXTENSION,
        ),
    ),
}


def verify_figure(key: str, result: FigureResult) -> list[tuple[Claim, bool]]:
    """Evaluate every claim attached to one figure or ablation key."""
    try:
        claims = CLAIMS[key]
    except KeyError:
        known = ", ".join(sorted(CLAIMS))
        raise ExperimentError(f"no claims for figure {key!r}; known: {known}") from None
    return [(claim, claim.holds(result)) for claim in claims]


def verify_all(results: dict[str, FigureResult]) -> str:
    """Render the PASS/FAIL report over every key present in ``results``:
    the paper claims, their tally, then the extension claims and theirs."""
    outcomes = [
        outcome
        for key in CLAIMS
        if key in results
        for outcome in verify_figure(key, results[key])
    ]
    sections = []
    for tag in (PAPER, EXTENSION):
        tagged = [(claim, holds) for claim, holds in outcomes if claim.tag == tag]
        lines = [
            f"[{'PASS' if holds else 'FAIL'}] {claim.figure}: {claim.quote}"
            for claim, holds in tagged
        ]
        passed = sum(holds for _, holds in tagged)
        lines.append(f"\n{passed}/{len(tagged)} {tag} claims hold")
        sections.append("\n".join(lines))
    return "\n\n".join(sections)
