"""Churn figure: BPR vs BPS recall under seeded node churn 0-50%.

The robustness experiment the paper argues for but never runs: a base
node keeps querying while a deterministic fault plan crashes/restarts a
fraction of the network (plus a LIGLO outage and a transient partition
at nonzero rates).  Shape assertions:

* with no churn, recall is exactly 1.0 for both schemes — robustness
  machinery must cost a healthy network nothing;
* recall declines as churn rises;
* reconfiguring BPR never falls below static BPS at the highest rate;
* the BPR+RF2 overlay (rf=2 replication on top of reconfiguration)
  never falls below plain BPR at any swept rate.

``REPRO_BENCH_SCALE=smoke`` shrinks the sweep for CI; a smoke run neither
asserts the comparison nor writes anything under ``results/``.
"""

from benchmarks.support import SMOKE, publish, timed
from repro.eval.churn import figure_churn
from repro.eval.figures import FigureParams

PARAMS = FigureParams(objects_per_node=0, queries=2 if SMOKE else 4, seed=0)
NODE_COUNT = 10 if SMOKE else 16
RATES = (0.0, 0.25, 0.5) if SMOKE else (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


def test_figure_churn(benchmark):
    result, elapsed = benchmark.pedantic(
        lambda: timed(
            lambda: figure_churn(
                PARAMS,
                node_count=NODE_COUNT,
                churn_rates=RATES,
                replication_overlay=True,
            )
        ),
        rounds=1,
        iterations=1,
    )
    trials = result.trials
    publish(
        "churn",
        result,
        elapsed=elapsed,
        extra={
            "node_count": NODE_COUNT,
            "churn_rates": list(RATES),
            "trials": trials,
        },
    )
    if SMOKE:
        return
    bpr = dict(result.series_named("BPR"))
    bps = dict(result.series_named("BPS"))
    rf2 = dict(result.series_named("BPR+RF2"))
    # A healthy network answers in full — for both schemes.
    assert bpr[0.0] == 1.0
    assert bps[0.0] == 1.0
    # Churn hurts: the highest rate recalls strictly less than zero churn.
    top = max(RATES)
    assert bpr[top] < 1.0
    assert bps[top] < 1.0
    # Reconfiguration never does worse than static peers under churn.
    assert bpr[top] >= bps[top]
    # Replication on top of reconfiguration never does worse than
    # reconfiguration alone, at any swept rate.
    for rate in RATES:
        assert rf2[rate] >= bpr[rate]
    # The fault plan really fired: crashes and restarts were applied.
    churned = [t for t in trials if t["rate"] == top]
    for trial in churned:
        assert trial["faults_applied"].get("node-crash", 0) >= 1
        assert trial["faults_applied"].get("liglo-down", 0) == 1
        assert trial["faults_applied"].get("partition", 0) == 1
