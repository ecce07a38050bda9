"""Golden trial dicts: every key of every post-paper figure's trials.

``tests/eval/golden/trials_smoke.json`` freezes the full per-trial
observables of ``churn`` (with the replication overlay), ``routing``,
``topk`` and ``replication`` at their published shapes and the smoke
workload (``tests.support.SMOKE``: 2 queries, seed 0).  It was recorded
on the tree *before* each figure's shape became module constants (when
the shapes were those functions' defaults), so it shares no code with
that change.  Every golden key of every trial
must be unchanged; a trial may gain keys.  A change that means to move
one says which and why, and regenerates the file with
``REPRO_REWRITE_VECTORS=1``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.eval.churn import figure_churn
from repro.eval.replication import figure_replication
from repro.eval.routing import figure_routing
from repro.eval.topk import figure_topk

from tests.support import REWRITE_ENV_VAR, SMOKE, rewrite_requested

GOLDEN_PATH = Path(__file__).parent / "golden" / "trials_smoke.json"

SWEEPS = {
    "churn": lambda: figure_churn(SMOKE),
    "routing": lambda: figure_routing(SMOKE),
    "topk": lambda: figure_topk(SMOKE),
    "replication": lambda: figure_replication(SMOKE),
}


@pytest.mark.parametrize("figure", sorted(SWEEPS))
def test_trials_match_golden(figure):
    trials = SWEEPS[figure]().trials
    current = json.loads(json.dumps(trials))  # tuples -> lists, as stored
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    if rewrite_requested():
        golden[figure] = current
        GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"rewrote {figure!r} in {GOLDEN_PATH} ({REWRITE_ENV_VAR} set)")
    assert len(current) == len(golden[figure])
    for index, (now, pinned) in enumerate(zip(current, golden[figure])):
        moved = {key: (now.get(key), pinned[key]) for key in pinned if now.get(key) != pinned[key]}
        assert not moved, (
            f"{figure} trial {index}: (now, golden) differ for {moved}.  If the "
            f"change means to move a simulated quantity, say which and why, and "
            f"regenerate {GOLDEN_PATH.name} with {REWRITE_ENV_VAR}=1."
        )
