"""Routing-strategy comparison: recall vs traffic, clean and under churn.

Every registered :mod:`repro.core.routing` strategy runs the churn-figure
workload at rates 0 and 0.3 and reports mean recall next to messages and
bytes per query.  Shape assertions (full scale only):

* the paper strategies (maxcount/minhops) keep their recall — the
  pluggable framework costs the classic paths nothing;
* super-peer routing beats MaxCount on messages-per-query at recall no
  worse than MaxCount's, clean *and* under churn — the hint directory
  replaces the flood with a TTL-1 unicast to the holders;
* the hint directory really answered (hint hits observed), and the
  fault plan really fired at the churn point.

``REPRO_BENCH_SCALE=smoke`` shrinks the sweep for CI; a smoke run neither
asserts the comparison nor writes anything under ``results/``.
"""

from benchmarks.support import SMOKE, publish, timed
from repro.eval.figures import FigureParams
from repro.eval.routing import figure_routing

PARAMS = FigureParams(objects_per_node=0, queries=2 if SMOKE else 4, seed=0)
NODE_COUNT = 10 if SMOKE else 16
RATES = (0.0, 0.3)


def test_figure_routing(benchmark):
    result, elapsed = benchmark.pedantic(
        lambda: timed(
            lambda: figure_routing(
                PARAMS, node_count=NODE_COUNT, churn_rates=RATES
            )
        ),
        rounds=1,
        iterations=1,
    )
    trials = result.trials
    publish(
        "routing",
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
    point = {(t["strategy"], t["rate"]): t for t in trials}
    top = max(RATES)
    # The framework costs the classic paths nothing: the paper
    # strategies still answer in full on a healthy network.
    assert point[("maxcount", 0.0)]["mean_recall"] == 1.0
    assert point[("static", 0.0)]["mean_recall"] == 1.0
    for rate in RATES:
        sp, mc = point[("superpeer", rate)], point[("maxcount", rate)]
        # Recall no worse than MaxCount (hint miss falls back to flood)...
        assert sp["mean_recall"] >= mc["mean_recall"]
        # ...at strictly fewer messages and bytes per query.
        assert sp["messages_per_query"] < mc["messages_per_query"]
        assert sp["bytes_per_query"] < mc["bytes_per_query"]
        # The directory answered: routed queries came from hint hits.
        assert sp["hint_hits"] >= 1
    # The fault plan really fired at the churn point.
    for strategy in ("maxcount", "superpeer", "history", "costaware"):
        applied = point[(strategy, top)]["faults_applied"]
        assert applied.get("node-crash", 0) >= 1
        assert applied.get("liglo-down", 0) == 1
        assert applied.get("partition", 0) == 1
