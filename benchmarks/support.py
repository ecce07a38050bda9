"""Shared benchmark scaffolding.

Every bench runs its figure at the paper's scale (1000 x 1KB objects per
node, queries issued four times), prints the reproduced series, and
saves them under ``benchmarks/results/`` so EXPERIMENTS.md can be
regenerated from a benchmark run.  Benches that pass an ``elapsed``
wall-clock additionally write ``BENCH_<name>.json`` next to the text
output, recording the measured time against the pre-optimisation
baseline so speedups are auditable from the artifact alone.
"""

from __future__ import annotations

import functools
import json
import os
import time

from repro.eval.experiment import FigureResult
from repro.eval.figures import FigureParams, figures_6_and_7
from repro.eval.report import format_figure

#: Paper-scale parameters shared by all figure benchmarks.
PAPER = FigureParams(objects_per_node=1000, object_size=1024, queries=4)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: ``REPRO_BENCH_SCALE=smoke``: benches shrink their sweeps for CI, skip
#: their full-scale assertions, and write nothing under ``results/`` —
#: the published artifacts always reflect a full-scale run.
SMOKE = os.environ.get("REPRO_BENCH_SCALE", "").strip().lower() == "smoke"

#: Wall-clock seconds per figure before the wire/StorM fast paths landed
#: (commit cbbcbfd, paper scale, single-CPU container).  Recorded into
#: every ``BENCH_*.json`` so the speedup claim carries its own evidence.
BASELINES_SECONDS = {
    "figure_5a": 36.26,
    "figure_8a": 10.20,
}


def timed(fn):
    """Run ``fn()`` and return ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def publish(
    name: str,
    result: FigureResult,
    elapsed: float | None = None,
    extra: dict | None = None,
) -> FigureResult:
    """Print a reproduced figure and persist it for EXPERIMENTS.md.

    With ``elapsed``, also write ``BENCH_<name>.json`` holding the series
    plus wall-clock evidence (and the recorded baseline, when one exists).
    A smoke run (:data:`SMOKE`) only prints.
    """
    text = format_figure(result)
    print()
    print(text)
    if SMOKE:
        return result
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    if elapsed is not None:
        payload = {
            "name": name,
            "figure": result.figure,
            "series": {k: list(map(list, v)) for k, v in result.series.items()},
            "wall_clock_seconds": round(elapsed, 4),
        }
        baseline = BASELINES_SECONDS.get(name)
        if baseline is not None:
            payload["baseline_seconds"] = baseline
            payload["speedup_vs_baseline"] = round(baseline / elapsed, 2)
        if extra:
            payload.update(extra)
        json_path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
        with open(json_path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return result


@functools.lru_cache(maxsize=1)
def shared_figures_6_and_7() -> tuple[FigureResult, FigureResult]:
    """Figures 6 and 7 share one set of runs; compute them once."""
    return figures_6_and_7(PAPER, node_count=32)
