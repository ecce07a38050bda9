"""Replication policy validation."""

import pytest

from repro.errors import ReplicationError
from repro.replication.policy import ReplicationPolicy


class TestPolicyValidation:
    def test_defaults_reproduce_the_paper(self):
        policy = ReplicationPolicy()
        assert policy.rf == 1
        assert policy.hot_rf is None
        assert not policy.replicates
        assert not policy.caches
        assert not policy.active

    def test_rf_two_replicates(self):
        policy = ReplicationPolicy(rf=2)
        assert policy.replicates
        assert policy.active
        assert not policy.caches

    def test_hot_rf_alone_replicates(self):
        policy = ReplicationPolicy(rf=1, hot_rf=3)
        assert policy.replicates
        assert policy.active

    def test_cache_alone_activates(self):
        policy = ReplicationPolicy(cache_capacity=4)
        assert policy.caches
        assert policy.active
        assert not policy.replicates

    def test_rf_below_one_rejected(self):
        with pytest.raises(ReplicationError, match="rf must be >= 1"):
            ReplicationPolicy(rf=0)

    def test_hot_rf_below_rf_rejected(self):
        with pytest.raises(ReplicationError, match="hot_rf must be >= rf"):
            ReplicationPolicy(rf=3, hot_rf=2)

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ReplicationError, match="hot_threshold"):
            ReplicationPolicy(hot_threshold=0.0)

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ReplicationError, match="ewma_alpha"):
            ReplicationPolicy(ewma_alpha=0.0)
        with pytest.raises(ReplicationError, match="ewma_alpha"):
            ReplicationPolicy(ewma_alpha=1.5)

    def test_negative_cache_capacity_rejected(self):
        with pytest.raises(ReplicationError, match="cache_capacity"):
            ReplicationPolicy(cache_capacity=-1)

    def test_policy_is_frozen(self):
        policy = ReplicationPolicy(rf=2)
        with pytest.raises(AttributeError):
            policy.rf = 3
