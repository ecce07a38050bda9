"""Helpers shared by the golden-file tests (wire vectors, ledger and figure digests)."""

from __future__ import annotations

import os

#: Set to a non-empty value to regenerate golden files instead of checking them.
REWRITE_ENV_VAR = "REPRO_REWRITE_VECTORS"


def rewrite_requested() -> bool:
    return bool(os.environ.get(REWRITE_ENV_VAR))
