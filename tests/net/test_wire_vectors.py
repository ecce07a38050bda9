"""Golden wire vectors: the committed byte-exact form of every frame.

``tests/net/vectors/control_frames.json`` stores the canonical frame for
each registered message's sample.  Any layout drift — a reordered field,
a changed width, a reassigned type id — fails here with a readable diff
*before* it silently breaks cross-version interop.  Intentional changes
must bump :data:`~repro.net.codec.WIRE_FORMAT_VERSION` and regenerate
the file with ``REPRO_REWRITE_VECTORS=1``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.net.codec import (
    WIRE_FORMAT_VERSION,
    decode_message,
    encode_message,
    load_registrations,
    registered_specs,
)

from tests.support import REWRITE_ENV_VAR, rewrite_requested

load_registrations()

VECTORS_PATH = Path(__file__).parent / "vectors" / "control_frames.json"


def current_vectors() -> dict:
    """The vector document the registry produces right now."""
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


def _drift_report(golden: dict, current: dict) -> list[str]:
    """Human-readable description of every difference, empty when none."""
    lines: list[str] = []
    if golden["wire_format_version"] != current["wire_format_version"]:
        lines.append(
            f"wire format version: golden {golden['wire_format_version']} "
            f"!= current {current['wire_format_version']}"
        )
    golden_frames, current_frames = golden["frames"], current["frames"]
    for name in sorted(golden_frames.keys() - current_frames.keys()):
        lines.append(f"{name}: in golden vectors but no longer registered")
    for name in sorted(current_frames.keys() - golden_frames.keys()):
        lines.append(f"{name}: registered but missing from golden vectors")
    for name in sorted(golden_frames.keys() & current_frames.keys()):
        want, got = golden_frames[name], current_frames[name]
        if want["type_id"] != got["type_id"]:
            lines.append(
                f"{name}: type id changed {want['type_id']} -> {got['type_id']}"
            )
        if want["frame_hex"] != got["frame_hex"]:
            lines.append(
                f"{name}: frame bytes drifted\n"
                f"    golden  {want['frame_hex']}\n"
                f"    current {got['frame_hex']}"
            )
    return lines


def test_golden_vectors_match_registry():
    current = current_vectors()
    if rewrite_requested():
        VECTORS_PATH.parent.mkdir(parents=True, exist_ok=True)
        VECTORS_PATH.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"rewrote {VECTORS_PATH} ({REWRITE_ENV_VAR} set)")
    drift = _drift_report(golden_vectors(), current)
    assert not drift, (
        "wire format drifted without a version bump.\n"
        "If this change is intentional: bump WIRE_FORMAT_VERSION in "
        "repro/net/codec.py and regenerate the vectors with "
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
