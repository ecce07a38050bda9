"""Golden wire vectors: the committed byte-exact form of every frame.

``tests/net/vectors/control_frames.json`` and ``data_frames.json`` store
the canonical frame for each registered message's sample, one file per
plane.  The ``check_*`` functions take the plane; this module runs them
on the control plane and ``test_data_vectors.py`` on the data plane.  Any layout drift — a reordered field, a changed width, a
reassigned type id — fails here with a readable diff *before* it
silently breaks cross-version interop.  Intentional changes must bump
:data:`~repro.net.codec.WIRE_FORMAT_VERSION` and regenerate the files
with ``REPRO_REWRITE_VECTORS=1``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.net.codec import (
    CONTROL,
    DATA,
    WIRE_FORMAT_VERSION,
    decode_message,
    encode_message,
    registered_specs,
)

from tests.support import REWRITE_ENV_VAR, rewrite_requested

from .conformance import load_registrations

load_registrations()

VECTORS = Path(__file__).parent / "vectors"
#: plane -> the file holding its golden frames
VECTORS_PATHS = {
    CONTROL: VECTORS / "control_frames.json",
    DATA: VECTORS / "data_frames.json",
}


def current_vectors(plane) -> dict:
    """The vector document the registry produces right now for ``plane``."""
    return {
        "wire_format_version": WIRE_FORMAT_VERSION,
        "frames": {
            spec.name: {
                "type_id": f"{spec.type_id:#06x}",
                "sample": repr(spec.sample()),
                "frame_hex": encode_message(spec.sample()).hex(),
            }
            for spec in registered_specs()
            if spec.plane is plane
        },
    }


def golden_vectors(plane) -> dict:
    return json.loads(VECTORS_PATHS[plane].read_text())


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


def check_golden_vectors_match_registry(plane) -> None:
    path = VECTORS_PATHS[plane]
    current = current_vectors(plane)
    if rewrite_requested():
        VECTORS.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"rewrote {path} ({REWRITE_ENV_VAR} set)")
    drift = _drift_report(golden_vectors(plane), current)
    assert not drift, (
        f"{plane.name} wire format drifted without a version bump.\n"
        "If this change is intentional: bump WIRE_FORMAT_VERSION in "
        "repro/net/codec.py and regenerate the vectors with "
        f"{REWRITE_ENV_VAR}=1.\n" + "\n".join(drift)
    )


def check_golden_frames_decode_to_their_samples(plane) -> None:
    """The decoder accepts the *committed* bytes, not just fresh encodes."""
    if rewrite_requested():
        pytest.skip("vectors are being rewritten")
    by_name = {s.name: s for s in registered_specs() if s.plane is plane}
    for name, entry in golden_vectors(plane)["frames"].items():
        decoded = decode_message(bytes.fromhex(entry["frame_hex"]))
        assert decoded == by_name[name].sample(), (plane.name, name)


def check_golden_vectors_carry_the_current_version(plane) -> None:
    if rewrite_requested():
        pytest.skip("vectors are being rewritten")
    assert golden_vectors(plane)["wire_format_version"] == WIRE_FORMAT_VERSION


def test_golden_vectors_match_registry():
    check_golden_vectors_match_registry(CONTROL)


def test_golden_frames_decode_to_their_samples():
    check_golden_frames_decode_to_their_samples(CONTROL)


def test_golden_vectors_carry_the_current_version():
    check_golden_vectors_carry_the_current_version(CONTROL)
