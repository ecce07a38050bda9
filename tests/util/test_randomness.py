"""Tests for repro.util.randomness."""

from repro.util.randomness import derive_rng


def test_same_scope_same_stream():
    a = derive_rng(42, "workload", 3)
    b = derive_rng(42, "workload", 3)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_scope_different_stream():
    a = derive_rng(42, "workload", 3)
    b = derive_rng(42, "workload", 4)
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_different_seed_different_stream():
    a = derive_rng(1, "x")
    b = derive_rng(2, "x")
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

