"""Helpers shared by the tests: the golden-file rewrite switch (wire
vectors, ledger and figure digests) and the one smoke scale."""

from __future__ import annotations

import os

from repro.eval.figures import FigureParams

#: The smoke scale every figure test and the CLI goldens run the
#: published shapes at (``repro figure ... --objects 20 --queries 2``).
SMOKE = FigureParams(objects_per_node=20, queries=2)

#: Set to a non-empty value to regenerate golden files instead of checking them.
REWRITE_ENV_VAR = "REPRO_REWRITE_VECTORS"


def rewrite_requested() -> bool:
    return bool(os.environ.get(REWRITE_ENV_VAR))
