"""What a run charges does not depend on when the cyclic collector runs.

Object lifetimes move whenever set-up changes what it allocates, and
``repro.agents.codeship`` keeps a ``WeakKeyDictionary`` source cache
whose entries live as long as the collector lets them.  So the perf
ledger's flood op and one churn trial (smoke scale) run three times —
collector off, at its default thresholds, and at ``(1, 1, 1)`` — and the
outcomes, every host's byte count and the delivered packets must agree.
So must the set-up and one sweep point of the paper-figure workload,
whose stores are template clones that build their buffer frames only
when first needed.
"""

from __future__ import annotations

import gc
from types import SimpleNamespace
from unittest import mock

import pytest

from perfledger.scenarios import ChurnRf2, Fig5aPaper, Flood1k, Outcome
from repro.net.network import Network


def _flood() -> Outcome:
    workload = Flood1k(seed=1, smoke=True)
    workload.setup()
    return workload.op(0, harness=None)


def _churn() -> Outcome:
    harness = SimpleNamespace(end_of_setup=lambda: None, meter=SimpleNamespace(laps={}))
    return ChurnRf2(seed=1, smoke=True).op(0, harness)


def _fig5a() -> Outcome:
    networks = []
    build = Network.__init__

    def noting_init(network, *args, **kwargs):
        build(network, *args, **kwargs)
        networks.append(network)

    workload = Fig5aPaper(seed=1, smoke=True)
    workload.setup()
    with mock.patch.object(Network, "__init__", noting_init):
        outcome = workload.op(3, harness=SimpleNamespace(checkpoint=lambda: None))
    outcome.networks = networks
    return outcome


def _observed(outcome: Outcome) -> tuple:
    return (
        outcome.attempted,
        outcome.failed,
        repr(outcome.observed),
        outcome.counts,
        outcome.errors,
        [
            (
                sorted((name, host.bytes_sent) for name, host in network.hosts.items()),
                network.packets_delivered,
            )
            for network in outcome.networks
        ],
    )


def _run_with_collector(mode: str, run) -> tuple:
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    try:
        if mode == "off":
            gc.disable()
        else:
            gc.enable()
            if mode == "eager":
                gc.set_threshold(1, 1, 1)
        return _observed(run())
    finally:
        gc.set_threshold(*thresholds)
        if enabled:
            gc.enable()
        else:
            gc.disable()


@pytest.mark.parametrize(
    "run", [_flood, _churn, _fig5a], ids=["flood_1k", "churn_rf2", "fig5a_paper"]
)
def test_outcomes_do_not_depend_on_collector_timing(run):
    off, default, eager = (
        _run_with_collector(mode, run) for mode in ("off", "default", "eager")
    )
    assert off[1] == 0
    assert off == default == eager
