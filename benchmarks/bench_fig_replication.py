"""Replication figure: recall under churn, RF=1 vs RF=2 vs RF=2+cache.

The tentpole claim of the replication merge: owner-driven rf=2
placement turns churn survival into resilience — at 30% churn the
replicated schemes keep recall >= 0.95 on the exact workload where the
single-copy baseline visibly degrades, and the extra copies stay
affordable.  Shape assertions (full scale only):

* with no churn every scheme recalls 1.0 — replication must cost a
  healthy network nothing in answers;
* at 30% churn RF2 and RF2+cache each recall >= 0.95 while RF1 recalls
  strictly less than either;
* replica holders actually answered for dead owners (replica_answers
  > 0 under churn) and the Zipf-hot cache actually hit;
* bytes per query stay bounded: RF2 spends at most 1.5x the RF1 wire
  bill, and the cached scheme spends *less* than plain RF2;
* the fault plan really fired at the top rate.

``REPRO_BENCH_SCALE=smoke`` shrinks the sweep for CI; a smoke run neither
asserts the comparison nor writes anything under ``results/``.
"""

from benchmarks.support import SMOKE, publish, timed
from repro.eval.figures import FigureParams
from repro.eval.replication import figure_replication

PARAMS = FigureParams(objects_per_node=0, queries=2 if SMOKE else 4, seed=0)
NODE_COUNT = 8 if SMOKE else 16
RATES = (0.0, 0.3) if SMOKE else (0.0, 0.3, 0.5)


def test_figure_replication(benchmark):
    result, elapsed = benchmark.pedantic(
        lambda: timed(
            lambda: figure_replication(
                PARAMS, node_count=NODE_COUNT, churn_rates=RATES
            )
        ),
        rounds=1,
        iterations=1,
    )
    trials = result.trials
    publish(
        "replication",
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
    rf1 = dict(result.series_named("RF1"))
    rf2 = dict(result.series_named("RF2"))
    cached = dict(result.series_named("RF2+cache"))
    # A healthy network answers in full under every scheme.
    assert rf1[0.0] == 1.0
    assert rf2[0.0] == 1.0
    assert cached[0.0] == 1.0
    # The headline: at 30% churn the replicated schemes stay >= 0.95
    # on the workload where single-copy recall visibly degrades.
    assert rf2[0.3] >= 0.95
    assert cached[0.3] >= 0.95
    assert rf1[0.3] < rf2[0.3]
    assert rf1[0.3] < cached[0.3]
    point = {(t["scheme"], t["rate"]): t for t in trials}
    # Holders genuinely answered for dead owners...
    assert point[("RF2", 0.3)]["replication"]["replica_answers"] > 0
    # ...and the Zipf-hot repeats genuinely hit the result cache.
    assert point[("RF2+cache", 0.3)]["replication"]["cache_hits"] > 0
    for rate in RATES:
        # Bounded overhead: one extra copy never blows up the wire bill...
        assert (
            point[("RF2", rate)]["bytes_per_query"]
            <= 1.5 * point[("RF1", rate)]["bytes_per_query"]
        )
        # ...and the cache claws wire bytes back below plain RF2.
        assert (
            point[("RF2+cache", rate)]["bytes_per_query"]
            < point[("RF2", rate)]["bytes_per_query"]
        )
    # The fault plan really fired at the top churn rate.
    top = max(RATES)
    for scheme in ("RF1", "RF2", "RF2+cache"):
        assert point[(scheme, top)]["faults_applied"].get("node-crash", 0) >= 1
