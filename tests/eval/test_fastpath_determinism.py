"""How a run is executed must never change a result.

The wire encoder's identity cache (a module constant), the codec's
per-spec frame memos and the store templates exist purely to save
wall-clock; these tests pin down that every observable output (figure
series, bytes on the wire, packet counts, answer hop counts, buffer I/O
statistics) is bit-identical with the identity cache off, and whether
a memo or template starts cold or warm: a second in-process run of a
figure equals the first.  "Now vs before" is ``test_figure_digests.py`` and
``test_ledger_digests.py``.
"""

from __future__ import annotations

import pytest

import repro.util.serialization as serialization_module
from repro.core.builder import build_network
from repro.core.config import BestPeerConfig
from repro.eval.figures import figure_5a, figure_5c, figure_8a
from repro.net import codec as wire
from repro.net.network import Network
from repro.topology.builders import line, star

from tests.support import SMOKE


def _run_figures():
    return figure_5a(SMOKE).series, figure_8a(SMOKE).series


@pytest.fixture
def fastpath_results():
    """Figure series with every fast path at its default (enabled)."""
    return _run_figures()


def test_series_identical_with_caches_disabled(monkeypatch, fastpath_results):
    monkeypatch.setattr(serialization_module, "WIRE_CACHE_CAPACITY", 0)
    assert _run_figures() == fastpath_results


def test_series_identical_on_a_second_run(fastpath_results):
    # The fixture's run left the store templates and codec memos warm.
    assert _run_figures() == fastpath_results


class _InOrder:
    """A serial runner for figure_5a's ``runner=`` seam: maps in order."""

    def __init__(self) -> None:
        self.calls = 0

    def map_tasks(self, func, tasks: list) -> list:
        self.calls += 1
        return [func(task) for task in tasks]


def test_series_identical_under_serial_runner(fastpath_results):
    # figure_5a's one remaining runner seam (the perf ledger drives it)
    # must give the series a plain in-process run gives.
    serial = _InOrder()
    fig5 = figure_5a(SMOKE, runner=serial)
    fig8 = figure_8a(SMOKE)
    assert serial.calls == 1
    assert (fig5.series, fig8.series) == fastpath_results


def _drive_deployment() -> tuple[list[int], list[tuple], int, int, int]:
    """One deterministic BestPeer workload; returns wire-level observables
    plus per-answer hop counts."""
    deployment = build_network(
        5,
        config=BestPeerConfig(max_direct_peers=3, strategy="maxcount"),
        topology=line(5),
    )
    deployment.nodes[3].share(["needle"], b"payload-at-node-3")
    deployment.nodes[4].share(["needle"], b"payload-at-node-4")
    sizes = []
    answer_hops = []
    for _ in range(2):
        handle = deployment.base.issue_query("needle")
        deployment.sim.run()
        answer_hops.extend(
            sorted(
                (str(ans.responder), ans.hops, ans.answer_count)
                for ans in handle.answers
            )
        )
        deployment.base.finish_query(handle)
    network = deployment.network
    for host in network.hosts.values():
        sizes.append(host.bytes_sent)
    return (
        sizes,
        answer_hops,
        network.bytes_carried,
        network.packets_delivered,
        network.packets_dropped,
    )


def test_wire_bytes_identical_cache_on_vs_off(monkeypatch):
    with_cache = _drive_deployment()
    monkeypatch.setattr(serialization_module, "WIRE_CACHE_CAPACITY", 0)
    without_cache = _drive_deployment()
    assert with_cache == without_cache


def _figure_5_observables(monkeypatch) -> tuple:
    """Smoke-scale Figures 5(a) and 5(c): their series, every host's
    ``bytes_sent``, and how many messages were packed field by field."""
    networks, packed = [], []
    build, pack = Network.__init__, wire.pack_fields

    def recording(self, *args, **kwargs):
        build(self, *args, **kwargs)
        networks.append(self)

    def counting(*args):
        packed.append(1)
        pack(*args)

    with monkeypatch.context() as patch:
        patch.setattr(Network, "__init__", recording)
        patch.setattr(wire, "pack_fields", counting)
        series = (figure_5a(SMOKE).series, figure_5c(SMOKE).series)
    sent = [[host.bytes_sent for host in net.hosts.values()] for net in networks]
    return series, sent, len(packed)


def test_encode_memos_cold_or_warm_give_identical_figures(monkeypatch):
    for spec in wire.registered_specs():
        if spec.frames is not None:
            spec.frames.clear()
    cold_series, cold_sent, cold_packed = _figure_5_observables(monkeypatch)
    warm_series, warm_sent, warm_packed = _figure_5_observables(monkeypatch)
    assert (warm_series, warm_sent) == (cold_series, cold_sent)
    assert sum(map(sum, cold_sent)) > 0
    assert warm_packed < cold_packed  # the warm run really was served from the memos


def _faulted_observables() -> tuple:
    """The churn figure, faults firing mid-run at every nonzero rate, yet
    the seeded timeline must leave two runs bit-identical — the series
    and every key of every trial dict."""
    from repro.eval.churn import figure_churn

    result = figure_churn(SMOKE)
    return result.series, result.trials


def test_faulted_series_identical_on_a_second_run():
    # Fault injection must not break the fast-path contract: a nonzero
    # FaultPlan replays identically once the first run warmed every memo.
    assert _faulted_observables() == _faulted_observables()


def test_encoder_cache_actually_hits_during_flood():
    # A star base floods one envelope object to every peer.  The first
    # query ships per-peer class source (distinct envelopes); once the
    # peers cache the agent class, the second query's fan-out reuses a
    # single envelope and must hit the encoder cache.
    deployment = build_network(
        6,
        config=BestPeerConfig(max_direct_peers=8, strategy="static"),
        topology=star(6),
    )
    deployment.nodes[3].share(["needle"], b"on a leaf")
    for _ in range(2):
        handle = deployment.base.issue_query("needle")
        deployment.sim.run()
        deployment.base.finish_query(handle)
    network = deployment.network
    assert network.encode_misses > 0
    assert network.encode_hits > 0  # fan-out re-used at least one encoding


def _routing_observables() -> tuple:
    """The routing comparison figure under the churn fault plan, for every
    registered strategy (the post-paper ones among them)."""
    from repro.eval.routing import figure_routing

    result = figure_routing(SMOKE)
    return result.series, result.trials


def test_new_strategies_self_identical_on_a_second_run():
    # history / superpeer / costaware under churn: the seeded timeline
    # (including hint publishes, hint queries and fallback floods) must
    # replay bit-identically when the sweep runs again.
    assert _routing_observables() == _routing_observables()


def _topk_figure_observables() -> tuple:
    """The top-k figure under the churn fault plan: bounded (k=4, k=16)
    and exhaustive in the same sweep."""
    from repro.eval.topk import figure_topk

    result = figure_topk(SMOKE)
    return result.series, result.trials


def test_topk_figure_self_identical_on_a_second_run():
    # A bounded-k sweep under the seeded fault plan: accumulator state
    # rides the flood, dominated answers die mid-network, faults fire —
    # and the whole timeline still replays bit-identically when the
    # sweep runs again.
    assert _topk_figure_observables() == _topk_figure_observables()


def _replication_figure_observables() -> tuple:
    """The replication figure under the churn fault plan: all three
    schemes in the same sweep."""
    from repro.eval.replication import figure_replication

    result = figure_replication(SMOKE)
    return result.series, result.trials


def test_replication_figure_self_identical_on_a_second_run():
    # Offers, pushes, invalidations, cache hits and replica answers all
    # ride the same seeded timeline; the sweep must replay
    # bit-identically when it runs again.
    assert _replication_figure_observables() == _replication_figure_observables()
