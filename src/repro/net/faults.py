"""Malformed-frame fault injection for the wire codec.

Every future codec change is regression-pinned against the same fault
classes the decoder hardens against: truncation, bit flips, wrong
version, oversize, and trailing garbage.  The injector is deterministic
(seeded) so a failing corruption reproduces from the test seed alone.

The contract under test: every fault either raises a typed
:class:`~repro.errors.WireDecodeError` or — for body bit flips that
happen to remain self-consistent — decodes into a registered message
type.  Nothing else may escape the decoder.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.net.codec import PLANES, WIRE_FORMAT_VERSION


class FrameFaultInjector:
    """Produces corrupted variants of a well-formed frame of either plane."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def truncate(self, frame: bytes, keep: int | None = None) -> bytes:
        """A strict prefix of the frame (``keep`` bytes; random when None)."""
        if keep is None:
            keep = self._rng.randrange(len(frame))
        if not 0 <= keep < len(frame):
            raise ValueError(f"keep={keep} does not truncate a {len(frame)}B frame")
        return frame[:keep]

    def bit_flip(
        self, frame: bytes, position: int | None = None, bit: int | None = None
    ) -> bytes:
        """The frame with exactly one bit inverted."""
        if position is None:
            position = self._rng.randrange(len(frame))
        if bit is None:
            bit = self._rng.randrange(8)
        corrupted = bytearray(frame)
        corrupted[position] ^= 1 << bit
        return bytes(corrupted)

    def wrong_version(self, frame: bytes, version: int | None = None) -> bytes:
        """The frame stamped with a version this build does not speak."""
        if version is None:
            version = WIRE_FORMAT_VERSION + 1 + self._rng.randrange(100)
        if version == WIRE_FORMAT_VERSION:
            raise ValueError(f"version {version} is the supported version")
        corrupted = bytearray(frame)
        corrupted[1] = version & 0xFF
        return bytes(corrupted)

    def oversize(self, frame: bytes) -> bytes:
        """The frame padded past the size cap its magic byte names."""
        cap = PLANES[frame[0]].max_frame_bytes
        return frame + b"\x00" * (cap + 1 - len(frame))

    def trailing_garbage(self, frame: bytes) -> bytes:
        """The frame with 1-16 junk bytes appended after a complete message."""
        extra = 1 + self._rng.randrange(16)
        return frame + bytes(self._rng.randrange(256) for _ in range(extra))

    def faults(self) -> dict[str, Callable[[bytes], bytes]]:
        """Every fault class by name (for parametrized batteries)."""
        return {
            "truncated": self.truncate,
            "bit-flipped": self.bit_flip,
            "wrong-version": self.wrong_version,
            "oversized": self.oversize,
            "trailing-garbage": self.trailing_garbage,
        }
