"""In-network top-k: bytes-on-wire vs answer quality across TTL x k.

The tentpole claim of the top-k merge: bounding the per-query answer
set at k <= 16 cuts bytes per query at least 2x against exhaustive
flooding *at equal top-k answer quality* (score-mass ratio vs the
exhaustive-scan oracle), clean and with dominated answers genuinely
dying in-network (dominated counts > 0, digests observed).  Shape
assertions (full scale only):

* at TTL 8 on a healthy network, k=4 and k=16 each halve (or better)
  bytes per query vs the exhaustive run;
* their quality at their own cutoff matches the exhaustive run's
  quality at the same cutoff — the pruning is free;
* dominance pruning actually fired (dominated answers recorded);
* under churn the top-k runs still spend no more bytes than exhaustive.

``REPRO_BENCH_SCALE=smoke`` shrinks the sweep for CI; a smoke run neither
asserts the comparison nor writes anything under ``results/``.
"""

from benchmarks.support import SMOKE, publish, timed
from repro.eval.figures import FigureParams
from repro.eval.topk import figure_topk

PARAMS = FigureParams(objects_per_node=0, queries=2 if SMOKE else 4, seed=0)
NODE_COUNT = 8 if SMOKE else 16
KS = (4, None) if SMOKE else (4, 16, None)
TTLS = (4,) if SMOKE else (2, 4, 8)
RATES = (0.0,) if SMOKE else (0.0, 0.3)


def test_figure_topk(benchmark):
    result, elapsed = benchmark.pedantic(
        lambda: timed(
            lambda: figure_topk(
                PARAMS,
                node_count=NODE_COUNT,
                ks=KS,
                ttls=TTLS,
                churn_rates=RATES,
            )
        ),
        rounds=1,
        iterations=1,
    )
    trials = result.trials
    publish(
        "topk",
        result,
        elapsed=elapsed,
        extra={
            "node_count": NODE_COUNT,
            "ks": [k if k is not None else "exhaustive" for k in KS],
            "ttls": list(TTLS),
            "churn_rates": list(RATES),
            "trials": trials,
        },
    )
    if SMOKE:
        return
    point = {(t["k"], t["ttl"], t["rate"]): t for t in trials}
    exhaustive = point[(None, 8, 0.0)]
    for k in (4, 16):
        bounded = point[(k, 8, 0.0)]
        # The headline: bounding the answer set halves the wire bill...
        assert bounded["bytes_per_query"] * 2 <= exhaustive["bytes_per_query"]
        # ...at equal top-k answer quality (same cutoff, same oracle)...
        assert bounded["quality"][str(k)] >= exhaustive["quality"][str(k)]
        # ...because dominated answers really died in-network.
        assert bounded["dominated_per_query"] > 0
        assert bounded["digests_per_query"] > 0
    # Early termination never costs bytes, whatever the reach or churn.
    for ttl in TTLS:
        for rate in RATES:
            flood = point[(None, ttl, rate)]
            for k in (4, 16):
                assert (
                    point[(k, ttl, rate)]["bytes_per_query"]
                    <= flood["bytes_per_query"]
                )
    # The fault plan really fired at the churn point.
    applied = point[(4, 8, max(RATES))]["faults_applied"]
    assert applied.get("node-crash", 0) >= 1
