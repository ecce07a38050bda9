"""Tests for the retry/backoff policy."""

import pytest

from repro.errors import RetryError
from repro.util.randomness import derive_rng
from repro.util.retry import DEFAULT_RETRY_POLICY, RetryPolicy


class TestRetryPolicyValidation:
    def test_defaults_are_valid(self):
        assert DEFAULT_RETRY_POLICY.max_attempts == 4

    def test_rejects_zero_attempts(self):
        with pytest.raises(RetryError):
            RetryPolicy(max_attempts=0)

    def test_rejects_negative_base_delay(self):
        with pytest.raises(RetryError):
            RetryPolicy(base_delay=-0.1)

    def test_rejects_shrinking_multiplier(self):
        with pytest.raises(RetryError):
            RetryPolicy(multiplier=0.5)

    def test_rejects_cap_below_base(self):
        with pytest.raises(RetryError):
            RetryPolicy(base_delay=2.0, max_delay=1.0)

    def test_rejects_jitter_out_of_range(self):
        with pytest.raises(RetryError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(RetryError):
            RetryPolicy(jitter=-0.1)

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_RETRY_POLICY.max_attempts = 10


class TestShouldRetry:
    def test_counts_total_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(1)
        assert policy.should_retry(2)
        assert not policy.should_retry(3)

    def test_single_attempt_means_no_retries(self):
        assert not RetryPolicy(max_attempts=1).should_retry(1)


class TestDelay:
    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=1.0, multiplier=2.0, max_delay=100.0, jitter=0.0
        )
        assert [policy.delay(n) for n in (1, 2, 3, 4)] == [1.0, 2.0, 4.0, 8.0]

    def test_cap_applies(self):
        policy = RetryPolicy(
            max_attempts=9, base_delay=1.0, multiplier=2.0, max_delay=3.0, jitter=0.0
        )
        assert policy.delay(5) == 3.0

    def test_needs_at_least_one_failure(self):
        with pytest.raises(RetryError):
            DEFAULT_RETRY_POLICY.delay(0)

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, max_delay=1.0, jitter=0.25)
        rng = derive_rng(0, "jitter-band")
        for _ in range(200):
            delay = policy.delay(1, rng)
            assert 0.75 <= delay <= 1.25

    def test_jitter_is_seed_deterministic(self):
        policy = RetryPolicy(jitter=0.1)
        first = [policy.delay(n, derive_rng(7, "retry")) for n in (1, 2, 3)]
        second = [policy.delay(n, derive_rng(7, "retry")) for n in (1, 2, 3)]
        assert first == second

    def test_no_rng_means_exact_schedule(self):
        policy = RetryPolicy(jitter=0.5)
        assert policy.delay(1) == policy.base_delay

