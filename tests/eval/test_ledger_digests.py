"""Golden ledger digests: "now vs golden" for the four perf-ledger workloads.

``perfledger`` folds every simulated observable of a run (answer hop
counts, figure series, recall vector, bytes carried, packets delivered
and dropped by reason, per-host ``bytes_sent``) into one ``sim_digest``.
``tests/eval/golden/ledger_smoke.json`` freezes that digest, with the
attempted / failed op counts, for each workload at smoke scale, so a
change that moves any simulated quantity fails tier-1 here instead of in
a ten-minute paired benchmark.  A change that *means* to move one says
so and regenerates the file with ``REPRO_REWRITE_VECTORS=1``.

``perfledger`` is imported read-only; each workload runs in the ledger's
own fresh child process (``PYTHONHASHSEED=0``, ``REPRO_*`` scrubbed).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfledger import run as ledger

from tests.support import REWRITE_ENV_VAR, rewrite_requested

GOLDEN_PATH = Path(__file__).parent / "golden" / "ledger_smoke.json"
SEED, SECONDS = 0, 2
PINNED = ("sim_digest", "attempted", "failed")

WORKLOADS = tuple(spec["name"] for spec in ledger.load_contract()["workloads"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_matches_golden(workload):
    result = ledger.spawn(workload, SEED, SECONDS, smoke=True)
    current = {key: result[key] for key in PINNED}
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    if rewrite_requested():
        golden[workload] = current
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"rewrote {workload} in {GOLDEN_PATH} ({REWRITE_ENV_VAR} set)")
    assert current == golden[workload], (
        f"{workload}: a simulated observable moved (or an op now fails).\n"
        "If the change means to move it, say which quantity and why, and "
        f"regenerate {GOLDEN_PATH.name} with {REWRITE_ENV_VAR}=1."
    )
    assert current["failed"] == 0
