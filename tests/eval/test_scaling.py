"""The scaling figure: jittered workload, executor parity, series shape."""

from repro.eval.figures import FigureParams
from repro.eval.scaling import (
    JITTER_SPAN,
    _edge_jitter,
    _flood_deployment,
    _observables,
    available_cores,
    figure_scaling,
)

PARAMS = FigureParams(objects_per_node=0, queries=1, seed=0)


def _overlay_latencies(node_count=24, seed=0):
    from repro.topology.builders import random_graph

    deployment = _flood_deployment(node_count, seed=seed)
    topology = random_graph(node_count, degree=4, seed=seed)
    network = deployment.network
    latencies = []
    for a, b in sorted(topology.edges):
        for src, dst in ((a, b), (b, a)):
            latencies.append(
                network.link_for(
                    deployment.nodes[src].host.address,
                    deployment.nodes[dst].host.address,
                ).latency
            )
    return network.default_link.latency, latencies


class TestJitter:
    def test_edge_jitter_deterministic_and_directional(self):
        assert _edge_jitter("a", "b") == _edge_jitter("a", "b")
        assert 0.0 <= _edge_jitter("a", "b") < 1.0
        assert _edge_jitter("a", "b") != _edge_jitter("b", "a")

    def test_applied_latencies_nearly_all_unique(self):
        # Unique timestamps are what make exactly one firing order
        # legal, so the distributed executor must be bit-exact.
        _base, latencies = _overlay_latencies()
        assert len(set(latencies)) > len(latencies) * 0.9

    def test_jitter_span_is_small(self):
        base, latencies = _overlay_latencies()
        for latency in latencies:
            assert base <= latency <= base * (1.0 + JITTER_SPAN)


class TestFloodWorkload:
    def test_serial_and_lockstep_observables_match(self):
        serial = _flood_deployment(48, seed=0)
        serial.sim.run()
        reference = _observables(serial.network)

        sharded = _flood_deployment(48, seed=0, shards=2)
        sharded.sim.run()
        assert _observables(sharded.network) == reference

    def test_shard_mode_does_not_change_observables(self):
        reference = None
        for mode in ("hash", "locality"):
            deployment = _flood_deployment(48, seed=0, shards=2, shard_mode=mode)
            deployment.sim.run()
            observed = _observables(deployment.network)
            if reference is None:
                reference = observed
            else:
                assert observed == reference


class TestFigure:
    def test_small_sweep_shape_and_identity(self):
        figure = figure_scaling(
            PARAMS, node_counts=(48,), shard_counts=(1, 2)
        )
        assert "measured 48n" in figure.series
        assert "projected 48n" in figure.series
        # Both series anchored at (1, 1.0): serial is its own baseline.
        assert figure.series["measured 48n"][0] == (1, 1.0)
        assert figure.series["projected 48n"][0] == (1, 1.0)
        assert [x for x, _y in figure.series["projected 48n"]] == [1, 2]
        trials = figure.trials
        assert all(trial["identical"] for trial in trials)
        executors = {trial["executor"] for trial in trials}
        assert executors == {"serial", "lockstep", "distributed"}

    def test_weak_series_grows_nodes_with_shards(self):
        figure = figure_scaling(
            PARAMS, node_counts=(), shard_counts=(1, 2), weak_base=24
        )
        trials = figure.trials
        assert {t["node_count"] for t in trials} == {24, 48}
        assert [x for x, _y in figure.series["weak projected"]] == [1, 2]

    def test_available_cores_positive(self):
        assert available_cores() >= 1
