"""WireEncoder: identity-keyed encode-once cache for the wire path."""

from __future__ import annotations

import gzip

import repro.util.serialization as serialization_module
from repro.util.compression import DEFAULT_CODEC
from repro.util.serialization import EncodedPayload, WireEncoder, deserialize
from repro.util.tracing import Tracer


def test_same_object_encodes_once():
    encoder = WireEncoder(DEFAULT_CODEC)
    payload = {"query": "keyword", "hops": 3}
    first = encoder.encode(payload)
    second = encoder.encode(payload)
    assert first is second
    assert (encoder.hits, encoder.misses) == (1, 1)


def test_equal_but_distinct_objects_encode_separately():
    encoder = WireEncoder(DEFAULT_CODEC)
    a = {"query": "keyword"}
    b = {"query": "keyword"}
    first = encoder.encode(a)
    second = encoder.encode(b)
    assert first.raw == second.raw
    assert first.compressed_size == second.compressed_size
    assert encoder.misses == 2


def test_encoding_matches_direct_serialization():
    encoder = WireEncoder(DEFAULT_CODEC)
    payload = ("tuple", 42, b"bytes")
    encoded = encoder.encode(payload)
    assert isinstance(encoded, EncodedPayload)
    assert deserialize(encoded.raw) == payload
    assert encoded.compressed_size == len(gzip.compress(encoded.raw, mtime=0))


def test_capacity_zero_disables_caching(monkeypatch):
    monkeypatch.setattr(serialization_module, "WIRE_CACHE_CAPACITY", 0)
    encoder = WireEncoder(DEFAULT_CODEC)
    payload = {"query": "keyword"}
    encoder.encode(payload)
    encoder.encode(payload)
    assert (encoder.hits, encoder.misses) == (0, 2)


def test_lru_eviction_respects_capacity():
    encoder = WireEncoder(DEFAULT_CODEC)
    capacity = serialization_module.WIRE_CACHE_CAPACITY
    keep_alive = [{"n": n} for n in range(capacity + 1)]
    for payload in keep_alive:
        encoder.encode(payload)
    # payload 0 was evicted; the rest still hit.
    for payload in keep_alive[1:]:
        encoder.encode(payload)
    assert encoder.hits == capacity
    encoder.encode(keep_alive[0])
    assert encoder.misses == capacity + 2


def test_recycled_id_does_not_serve_stale_bytes(monkeypatch):
    monkeypatch.setattr(serialization_module, "WIRE_CACHE_CAPACITY", 8)
    encoder = WireEncoder(DEFAULT_CODEC)
    # The cache keys on id() but stores a strong reference and verifies
    # object identity, so a different object at a recycled address can
    # never be served another payload's bytes.
    results = {}
    for n in range(64):
        payload = {"n": n}
        results[n] = deserialize(encoder.encode(payload).raw)
    assert all(results[n] == {"n": n} for n in range(64))


def test_hit_ratio_and_clear():
    encoder = WireEncoder(DEFAULT_CODEC)
    assert encoder.hit_ratio == 0.0
    payload = {"x": 1}
    encoder.encode(payload)
    encoder.encode(payload)
    assert encoder.hit_ratio == 0.5
    encoder.clear()  # drops cached encodings, keeps the counters
    encoder.encode(payload)
    assert (encoder.hits, encoder.misses) == (1, 2)


def test_tracer_counters_bump():
    tracer = Tracer(enabled=True)
    encoder = WireEncoder(DEFAULT_CODEC, tracer=tracer)
    payload = {"x": 1}
    encoder.encode(payload)
    encoder.encode(payload)
    assert tracer.counter("net", "encode-miss") == 1
    assert tracer.counter("net", "encode-hit") == 1
