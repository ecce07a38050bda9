"""Golden figure digests: "now vs golden" for every deterministic CLI output.

``tests/eval/golden/figures_smoke.json`` freezes, for each ``repro
figure``, each ``repro ablation`` and ``repro verify``, the exit code
and the sha256 of the CLI's stdout at ``--objects 20 --queries 2``.  A change
that moves any printed series, trial table or claim verdict fails here.
A change that *means* to move one says which and why, and regenerates
the file with ``REPRO_REWRITE_VECTORS=1``.

``verify`` runs every figure and ablation at this toy scale, where 15
of the paper's 16 claims and 39 of the 41 extension claims hold (two
queries leave 8a-settled no third run to read, so it prints
``[MISSING]``), and exits 1; that text and exit code are what is pinned.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import ABLATIONS, FIGURES, main

from tests.support import REWRITE_ENV_VAR, SMOKE, rewrite_requested

GOLDEN_PATH = Path(__file__).parent / "golden" / "figures_smoke.json"
SCALE = ("--objects", str(SMOKE.objects_per_node), "--queries", str(SMOKE.queries))

COMMANDS = (
    [("figure", name) for name in sorted(FIGURES)]
    + [("ablation", name) for name in sorted(ABLATIONS)]
    + [("verify",)]
)


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_cli_output_matches_golden(command, capsys):
    key = " ".join(command)
    exit_code = main([*command, *SCALE])
    text = capsys.readouterr().out
    current = {
        "exit_code": exit_code,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    if rewrite_requested():
        golden[key] = current
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"rewrote {key!r} in {GOLDEN_PATH} ({REWRITE_ENV_VAR} set)")
    assert current == golden[key], (
        f"repro {key}: the printed output moved.  If the change means to move "
        f"it, say which quantity and why, and regenerate {GOLDEN_PATH.name} "
        f"with {REWRITE_ENV_VAR}=1.  Current output:\n{text}"
    )
