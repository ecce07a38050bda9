"""Tests for the replication workload."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads import ReplicationSpec


class TestReplicationSpec:
    def test_factor_one_is_no_replication(self):
        spec = ReplicationSpec(node_count=10, factor=1, distinct_objects=6)
        all_payloads = [p for i in range(10) for p in spec.objects_for(i)]
        assert len(all_payloads) == 6
        assert len(set(all_payloads)) == 6  # every object exactly once

    def test_each_object_has_factor_copies(self):
        spec = ReplicationSpec(node_count=10, factor=3, distinct_objects=4)
        all_payloads = [p for i in range(10) for p in spec.objects_for(i)]
        assert len(all_payloads) == 12
        for payload in set(all_payloads):
            assert all_payloads.count(payload) == 3

    def test_copies_of_one_object_on_distinct_nodes(self):
        spec = ReplicationSpec(node_count=8, factor=4, distinct_objects=3)
        for payload in {p for ps in spec.placements.values() for p in ps}:
            holders = [i for i in spec.placements if payload in spec.placements[i]]
            assert len(holders) == 4

    def test_base_never_holds_copies(self):
        spec = ReplicationSpec(node_count=6, factor=5, distinct_objects=10)
        assert spec.objects_for(0) == []
        assert 0 not in spec.holders

    def test_object_size(self):
        spec = ReplicationSpec(node_count=5, factor=2, object_size=256)
        payload = next(iter(spec.placements.values()))[0]
        assert len(payload) == 256

    def test_deterministic(self):
        a = ReplicationSpec(node_count=10, factor=3, seed=5)
        b = ReplicationSpec(node_count=10, factor=3, seed=5)
        assert a.placements == b.placements

    def test_impossible_factor(self):
        with pytest.raises(WorkloadError):
            ReplicationSpec(node_count=4, factor=4)  # only 3 eligible
        with pytest.raises(WorkloadError):
            ReplicationSpec(node_count=4, factor=0)

    def test_no_objects_rejected(self):
        with pytest.raises(WorkloadError):
            ReplicationSpec(node_count=4, factor=1, distinct_objects=0)

    @given(
        st.integers(min_value=3, max_value=20),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=50),
    )
    def test_total_copies_invariant(self, nodes, objects, seed):
        factor = max(1, (nodes - 1) // 2)
        spec = ReplicationSpec(
            node_count=nodes, factor=factor, distinct_objects=objects or 1, seed=seed
        )
        placed = sum(len(ps) for ps in spec.placements.values())
        assert placed == spec.distinct_objects * factor
