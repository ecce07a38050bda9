"""Scaling figure: one flood simulation across all shards, 1k-10k nodes.

The headline artifact for the sharded kernel.  Strong scaling sweeps
shard counts {1, 2, 4} at fixed flood sizes up to 10k nodes; weak
scaling grows the flood with the shard count (2.5k nodes per shard, so
the 4-shard point is again a 10k-node flood).  Every distributed point
is checked byte-for-byte against its serial reference (the jittered
workload admits exactly one firing order — see
:mod:`repro.eval.scaling`).  Assertions (full scale only):

* every executor reproduces the serial observables exactly;
* the lockstep facade costs < 2x serial (it is serial plus barrier
  bookkeeping);
* the barrier's critical path projects > 1.8x speedup at 4 shards on
  the 10k-node flood — the measured wall-clock speedup is also
  recorded, alongside ``available_cores``, because a time-sliced
  single-core runner cannot exhibit it.

``REPRO_BENCH_SCALE=smoke`` shrinks the sweep for CI; a smoke run neither
asserts the comparison nor writes anything under ``results/``.
"""

from benchmarks.support import SMOKE, merge_section, publish, timed
from repro.eval.figures import FigureParams
from repro.eval.scaling import available_cores, figure_scaling

PARAMS = FigureParams(objects_per_node=0, queries=1 if SMOKE else 2, seed=0)
STRONG_NODES = (200,) if SMOKE else (1000, 2000, 10000)
SHARDS = (1, 2) if SMOKE else (1, 2, 4)
WEAK_BASE = None if SMOKE else 2500


def test_figure_scaling(benchmark):
    result, elapsed = benchmark.pedantic(
        lambda: timed(
            lambda: figure_scaling(
                PARAMS,
                node_counts=STRONG_NODES,
                shard_counts=SHARDS,
                weak_base=WEAK_BASE,
            )
        ),
        rounds=1,
        iterations=1,
    )
    trials = result.trials
    publish("scaling", result, elapsed=None)
    if SMOKE:
        return
    merge_section(
        "scaling",
        "figure",
        {
            "series": {k: list(map(list, v)) for k, v in result.series.items()},
            "trials": trials,
            "available_cores": available_cores(),
            "wall_clock_seconds": round(elapsed, 2),
        },
    )
    # Determinism: every executor, every size, byte-for-byte.
    assert all(trial["identical"] for trial in trials)
    # The 10k-node flood point exists and projects past the bar at 4 shards.
    headline = [
        t
        for t in trials
        if t["executor"] == "distributed"
        and t["node_count"] >= 10000
        and t["shards"] == 4
    ]
    assert headline, "no 10k-node distributed point in the sweep"
    assert any(t["projected_speedup"] > 1.8 for t in headline)
    # Lockstep is serial plus bookkeeping, never a different complexity.
    for trial in trials:
        if trial["executor"] == "lockstep":
            assert trial["overhead_vs_serial"] < 2.0
