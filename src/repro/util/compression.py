"""Message compression codecs: what a payload costs once gzipped.

The paper: "We also incorporated the GZIP data-compression algorithm in
the current implementation of BestPeer.  All the agent and messages used
for communications between every nodes or peers are in a compressed data
representation.  Compression and un-compression are performed
automatically by BestPeer platform and are transparent to the software
developers."

Here the codec only prices bytes, and fewer than in the prototype.
Every registered BestPeer message is a wire-codec frame
(:mod:`repro.net.codec`) charged at its size; only a payload no spec
covers (the client/server ``CsResults``) falls back to pickle, charged
at :meth:`Codec.compressed_size` while the uncompressed pickle travels.
The default is :class:`GzipCodec`; :class:`IdentityCodec` turns it off
for the compression ablation, which therefore reads gzip = off on every
run.
"""

from __future__ import annotations

import gzip
from hashlib import sha256

#: Distinct payloads a :class:`GzipCodec` remembers the size of, oldest
#: out first; a paper-scale figure sends at most a few hundred.
SIZE_MEMO_CAPACITY = 4096


class Codec:
    """Interface for byte-level compression codecs."""

    #: short name used in traces and ablation reports
    name = "codec"

    def compressed_size(self, data: bytes) -> int:
        """Bytes ``data`` occupies once compressed."""
        raise NotImplementedError


class GzipCodec(Codec):
    """Real gzip compression, as the BestPeer prototype used.

    With ``mtime=0`` the size is a pure function of the level and the
    bytes, so each distinct payload is compressed once and its size kept
    by SHA-256 digest.  The memo holds only ``bytes`` and ``int``, so the
    collector never tracks it.
    """

    name = "gzip"

    def __init__(self, level: int = 6):
        if not 0 <= level <= 9:
            raise ValueError(f"gzip level must be in 0..9, got {level}")
        self.level = level
        self._sizes: dict[bytes, int] = {}

    def compressed_size(self, data: bytes) -> int:
        key = sha256(data).digest()
        sizes = self._sizes
        size = sizes.get(key)
        if size is None:
            size = len(gzip.compress(data, compresslevel=self.level, mtime=0))
            sizes[key] = size
            if len(sizes) > SIZE_MEMO_CAPACITY:
                del sizes[next(iter(sizes))]
        return size


class IdentityCodec(Codec):
    """No-op codec used by the compression ablation."""

    name = "identity"

    def compressed_size(self, data: bytes) -> int:
        return len(data)


DEFAULT_CODEC = GzipCodec()
