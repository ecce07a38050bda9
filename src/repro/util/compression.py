"""Message compression codecs.

The paper: "We also incorporated the GZIP data-compression algorithm in
the current implementation of BestPeer.  All the agent and messages used
for communications between every nodes or peers are in a compressed data
representation.  Compression and un-compression are performed
automatically by BestPeer platform and are transparent to the software
developers."

Here the codec reaches fewer bytes than in the prototype.  Every
registered BestPeer message travels as a compact wire-codec frame
(:mod:`repro.net.codec`) and is charged at the frame's size; only a
payload no spec covers falls back to pickle, and only that pickle
passes through a :class:`Codec` before its size is charged.  The
default is :class:`GzipCodec`; :class:`IdentityCodec` turns it off for
the compression ablation, which therefore reads gzip = off on every run.
"""

from __future__ import annotations

import gzip
import zlib


class Codec:
    """Interface for byte-level compression codecs."""

    #: short name used in traces and ablation reports
    name = "codec"

    def compress(self, data: bytes) -> bytes:
        raise NotImplementedError

    def decompress(self, data: bytes) -> bytes:
        raise NotImplementedError


class GzipCodec(Codec):
    """Real gzip compression, as the BestPeer prototype used.

    ``mtime=0`` keeps output deterministic so simulated message sizes do
    not depend on the wall clock.
    """

    name = "gzip"

    def __init__(self, level: int = 6):
        if not 0 <= level <= 9:
            raise ValueError(f"gzip level must be in 0..9, got {level}")
        self.level = level

    def compress(self, data: bytes) -> bytes:
        return gzip.compress(data, compresslevel=self.level, mtime=0)

    def decompress(self, data: bytes) -> bytes:
        try:
            return gzip.decompress(data)
        except (OSError, EOFError, zlib.error) as exc:
            raise ValueError(f"corrupt gzip payload: {exc}") from exc


class IdentityCodec(Codec):
    """No-op codec used by the compression ablation."""

    name = "identity"

    def compress(self, data: bytes) -> bytes:
        return data

    def decompress(self, data: bytes) -> bytes:
        return data


DEFAULT_CODEC = GzipCodec()
