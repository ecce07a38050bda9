"""WireEncoder: identity-keyed encode-once cache for the wire path."""

from __future__ import annotations

import repro.util.serialization as serialization_module
from repro.baselines.client_server import CsDone, CsQuery
from repro.net.codec import decode_message, encode_message
from repro.util.serialization import WireEncoder
from repro.util.tracing import Tracer


def test_same_object_encodes_once():
    encoder = WireEncoder()
    payload = CsQuery(3, "keyword")
    first = encoder.encode(payload)
    second = encoder.encode(payload)
    assert first is second
    assert (encoder.hits, encoder.misses) == (1, 1)


def test_equal_but_distinct_objects_encode_separately():
    encoder = WireEncoder()
    a = CsQuery(1, "keyword")
    b = CsQuery(1, "keyword")
    first = encoder.encode(a)
    second = encoder.encode(b)
    assert first == second
    assert encoder.misses == 2


def test_encoding_matches_direct_serialization():
    encoder = WireEncoder()
    payload = CsQuery(42, "bytes")
    frame = encoder.encode(payload)
    assert frame == encode_message(payload)
    assert decode_message(frame) == payload


def test_capacity_zero_disables_caching(monkeypatch):
    monkeypatch.setattr(serialization_module, "WIRE_CACHE_CAPACITY", 0)
    encoder = WireEncoder()
    payload = CsQuery(1, "keyword")
    encoder.encode(payload)
    encoder.encode(payload)
    assert (encoder.hits, encoder.misses) == (0, 2)


def test_lru_eviction_respects_capacity():
    encoder = WireEncoder()
    capacity = serialization_module.WIRE_CACHE_CAPACITY
    keep_alive = [CsDone(n) for n in range(capacity + 1)]
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
    encoder = WireEncoder()
    # The cache keys on id() but stores a strong reference and verifies
    # object identity, so a different object at a recycled address can
    # never be served another payload's bytes.
    results = {}
    for n in range(64):
        payload = CsDone(n)
        results[n] = decode_message(encoder.encode(payload))
    assert all(results[n] == CsDone(n) for n in range(64))


def test_hit_ratio_counts_identity_hits_only():
    encoder = WireEncoder()
    assert encoder.hit_ratio == 0.0
    payload = CsDone(1)
    first = encoder.encode(payload)
    encoder.encode(payload)
    assert encoder.hit_ratio == 0.5
    # an equal, distinct object misses here, though the codec's memo
    # hands back the very frame it packed for the first
    assert encoder.encode(CsDone(1)) is first
    assert (encoder.hits, encoder.misses) == (1, 2)


def test_tracer_counters_bump():
    tracer = Tracer(enabled=True)
    encoder = WireEncoder(tracer=tracer)
    payload = CsDone(1)
    encoder.encode(payload)
    encoder.encode(payload)
    assert tracer.counter("net", "encode-miss") == 1
    assert tracer.counter("net", "encode-hit") == 1
