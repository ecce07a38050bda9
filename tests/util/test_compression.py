"""Tests for repro.util.compression: sizes, and the gzip size memo."""

import gzip

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.util.compression as compression
from repro.util.compression import DEFAULT_CODEC, GzipCodec, IdentityCodec


def _gzip_size(data: bytes, level: int = 6) -> int:
    return len(gzip.compress(data, compresslevel=level, mtime=0))


class TestGzipCodec:
    def test_size_is_the_gzip_size(self):
        data = b"hello bestpeer " * 100
        assert GzipCodec().compressed_size(data) == _gzip_size(data)

    def test_compresses_redundant_data(self):
        data = b"a" * 10_000
        assert GzipCodec().compressed_size(data) < len(data)

    def test_deterministic_output(self):
        data = b"deterministic payload" * 20
        assert GzipCodec().compressed_size(data) == GzipCodec().compressed_size(data)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            GzipCodec(level=10)
        with pytest.raises(ValueError):
            GzipCodec(level=-1)

    def test_level_zero_stores(self):
        data = b"stored, not compressed" * 50
        assert GzipCodec(level=0).compressed_size(data) == _gzip_size(data, 0)
        assert GzipCodec(level=0).compressed_size(data) > len(data)

    def test_repeat_is_priced_from_the_memo(self, monkeypatch):
        codec = GzipCodec()
        data = b"priced once" * 40
        first = codec.compressed_size(data)

        def refuse(*_args, **_kwargs):
            raise AssertionError("a repeated payload was compressed again")

        monkeypatch.setattr(gzip, "compress", refuse)
        assert codec.compressed_size(bytes(data)) == first  # equal, not identical

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.binary(max_size=512), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=9),
    )
    def test_size_equals_gzip_first_on_repeat_and_after_eviction(self, blobs, level):
        codec = GzipCodec(level)
        for data in blobs:
            assert codec.compressed_size(data) == _gzip_size(data, level)
        for data in blobs:
            assert codec.compressed_size(data) == _gzip_size(data, level)
        # More than a memo's worth of distinct inserts evicts every blob.
        for n in range(compression.SIZE_MEMO_CAPACITY + 1):
            codec.compressed_size(n.to_bytes(4, "big"))
        assert len(codec._sizes) == compression.SIZE_MEMO_CAPACITY
        for data in blobs:
            assert codec.compressed_size(data) == _gzip_size(data, level)
        assert len(codec._sizes) == compression.SIZE_MEMO_CAPACITY

    @given(st.binary(min_size=64, max_size=2048))
    def test_two_levels_never_share_an_entry(self, data):
        fast, best = GzipCodec(1), GzipCodec(9)
        assert fast.compressed_size(data) == _gzip_size(data, 1)
        assert best.compressed_size(data) == _gzip_size(data, 9)
        assert fast.compressed_size(data) == _gzip_size(data, 1)
        assert fast._sizes is not best._sizes


class TestIdentityCodec:
    def test_is_noop(self):
        assert IdentityCodec().compressed_size(b"untouched") == len(b"untouched")


def test_default_codec_is_gzip():
    assert isinstance(DEFAULT_CODEC, GzipCodec)
    assert DEFAULT_CODEC.name == "gzip"
