"""Golden wire vectors for the data-plane streaming codec.

``tests/net/vectors/data_frames.json`` stores the canonical frame for
each data-registered message's sample — the data-plane twin of
``test_wire_vectors.py``.  Any layout drift fails here with a readable
diff; intentional changes must bump
:data:`~repro.net.datacodec.WIRE_FORMAT_VERSION` and regenerate with
``REPRO_REWRITE_VECTORS=1``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.net.datacodec import (
    WIRE_FORMAT_VERSION,
    decode_message,
    encode_message,
    load_registrations,
    registered_specs,
)

from tests.support import REWRITE_ENV_VAR, rewrite_requested

from .test_wire_vectors import _drift_report

load_registrations()

VECTORS_PATH = Path(__file__).parent / "vectors" / "data_frames.json"


def current_vectors() -> dict:
    """The vector document the data registry produces right now."""
    return {
        "wire_format_version": WIRE_FORMAT_VERSION,
        "frames": {
            spec.name: {
                "type_id": f"{spec.type_id:#06x}",
                "sample": repr(spec.sample()),
                "frame_hex": encode_message(spec.sample()).hex(),
            }
            for spec in registered_specs()
        },
    }


def golden_vectors() -> dict:
    return json.loads(VECTORS_PATH.read_text())


def test_golden_vectors_match_registry():
    current = current_vectors()
    if rewrite_requested():
        VECTORS_PATH.parent.mkdir(parents=True, exist_ok=True)
        VECTORS_PATH.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"rewrote {VECTORS_PATH} ({REWRITE_ENV_VAR} set)")
    drift = _drift_report(golden_vectors(), current)
    assert not drift, (
        "data wire format drifted without a version bump.\n"
        "If this change is intentional: bump WIRE_FORMAT_VERSION in "
        "repro/net/datacodec.py and regenerate the vectors with "
        f"{REWRITE_ENV_VAR}=1.\n" + "\n".join(drift)
    )


def test_golden_frames_decode_to_their_samples():
    """The decoder accepts the *committed* bytes, not just fresh encodes."""
    if rewrite_requested():
        pytest.skip("vectors are being rewritten")
    golden = golden_vectors()
    by_name = {spec.name: spec for spec in registered_specs()}
    for name, entry in golden["frames"].items():
        spec = by_name[name]
        decoded = decode_message(bytes.fromhex(entry["frame_hex"]))
        assert decoded == spec.sample(), name


def test_golden_vectors_carry_the_current_version():
    if rewrite_requested():
        pytest.skip("vectors are being rewritten")
    assert golden_vectors()["wire_format_version"] == WIRE_FORMAT_VERSION
