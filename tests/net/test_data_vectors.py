"""Golden wire vectors for the data plane.

``tests/net/vectors/data_frames.json`` stores the canonical frame for
each data-plane message's sample.  The checks are the ones
``test_wire_vectors.py`` runs on the control plane; intentional layout
changes must bump :data:`~repro.net.codec.WIRE_FORMAT_VERSION` and
regenerate with ``REPRO_REWRITE_VECTORS=1``.
"""

from __future__ import annotations

from repro.net.codec import DATA

from .test_wire_vectors import (
    check_golden_frames_decode_to_their_samples,
    check_golden_vectors_carry_the_current_version,
    check_golden_vectors_match_registry,
)


def test_golden_vectors_match_registry():
    check_golden_vectors_match_registry(DATA)


def test_golden_frames_decode_to_their_samples():
    check_golden_frames_decode_to_their_samples(DATA)


def test_golden_vectors_carry_the_current_version():
    check_golden_vectors_carry_the_current_version(DATA)
