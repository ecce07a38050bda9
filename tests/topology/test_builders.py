"""Tests for topology builders."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.topology import grid, line, random_graph, ring, star, tree
from repro.topology.builders import Topology


class TestStar:
    def test_structure(self):
        topology = star(5)
        assert topology.degree(0) == 4
        for i in range(1, 5):
            assert topology.neighbors(i) == [0]
        assert topology.hops_from_base() == {0: 0, 1: 1, 2: 1, 3: 1, 4: 1}

    def test_single_node(self):
        topology = star(1)
        assert topology.edges == frozenset()
        assert topology.is_connected()


class TestLine:
    def test_structure(self):
        topology = line(4)
        assert topology.neighbors(0) == [1]
        assert topology.neighbors(1) == [0, 2]
        assert topology.neighbors(3) == [2]
        assert topology.hops_from_base() == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_two_nodes(self):
        assert line(2).edges == {(0, 1)}


class TestTree:
    def test_binary_tree(self):
        topology = tree(7, branching=2)
        assert topology.neighbors(0) == [1, 2]
        assert topology.neighbors(1) == [0, 3, 4]
        assert topology.neighbors(3) == [1]
        assert topology.hops_from_base()[6] == 2

    def test_partial_last_level(self):
        topology = tree(6, branching=2)
        assert topology.is_connected()
        assert topology.degree(2) == 2  # parent + one child (node 5)

    def test_branching_three(self):
        topology = tree(13, branching=3)
        assert topology.degree(0) == 3
        assert topology.hops_from_base()[12] == 2

    def test_invalid_branching(self):
        with pytest.raises(TopologyError):
            tree(5, branching=0)

    def test_paper_level_5_tree(self):
        """The paper used 48 nodes (not 63) at level 5 of a binary tree."""
        topology = tree(48, branching=2)
        assert topology.is_connected()
        # nodes 31..47 fill the first 17 places of level 5
        assert topology.hops_from_base()[47] == 5


class TestRing:
    def test_structure(self):
        topology = ring(5)
        assert all(topology.degree(i) == 2 for i in range(5))
        assert topology.is_connected()

    def test_too_small(self):
        with pytest.raises(TopologyError):
            ring(2)


class TestGrid:
    def test_structure(self):
        topology = grid(2, 3)
        assert topology.node_count == 6
        assert topology.degree(0) == 2  # corner
        assert topology.degree(1) == 3  # edge
        assert topology.is_connected()

    def test_invalid(self):
        with pytest.raises(TopologyError):
            grid(0, 3)


class TestRandomGraph:
    def test_connected_and_deterministic(self):
        a = random_graph(20, degree=3, seed=5)
        b = random_graph(20, degree=3, seed=5)
        assert a.edges == b.edges
        assert a.is_connected()

    def test_different_seeds_differ(self):
        a = random_graph(20, degree=3, seed=1)
        b = random_graph(20, degree=3, seed=2)
        assert a.edges != b.edges

    def test_degree_budget(self):
        topology = random_graph(30, degree=4, seed=0)
        average = sum(map(topology.degree, range(30))) / topology.node_count
        assert 2.0 <= average <= 4.5

    def test_validation(self):
        with pytest.raises(TopologyError):
            random_graph(1, degree=2)
        with pytest.raises(TopologyError):
            random_graph(10, degree=0)

    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=100),
    )
    def test_always_connected(self, nodes, degree, seed):
        assert random_graph(nodes, degree, seed).is_connected()


class TestTopologyValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Topology("bad", 3, frozenset({(1, 1)}))

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(TopologyError):
            Topology("bad", 3, frozenset({(0, 5)}))

    def test_unnormalized_edge_rejected(self):
        with pytest.raises(TopologyError):
            Topology("bad", 3, frozenset({(2, 1)}))

    def test_bad_base_rejected(self):
        with pytest.raises(TopologyError):
            Topology("bad", 3, frozenset(), base=7)

    def test_disconnected_detected(self):
        topology = Topology("two-islands", 4, frozenset({(0, 1), (2, 3)}))
        assert not topology.is_connected()

    def test_hops_from_base(self):
        topology = line(4)
        assert topology.hops_from_base() == {0: 0, 1: 1, 2: 2, 3: 3}
