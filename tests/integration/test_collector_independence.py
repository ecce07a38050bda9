"""What a run charges does not depend on when the cyclic collector runs.

Object lifetimes move whenever set-up changes what it allocates, and
``repro.agents.codeship`` keeps a ``WeakKeyDictionary`` source cache
whose entries live as long as the collector lets them.  So the perf
ledger's flood op and one churn trial (smoke scale) run three times —
collector off, at its default thresholds, and at ``(1, 1, 1)`` — and the
outcomes, every host's byte count and the delivered packets must agree.
"""

from __future__ import annotations

import gc
from types import SimpleNamespace

import pytest

from perfledger.scenarios import ChurnRf2, Flood1k, Outcome


def _flood() -> Outcome:
    workload = Flood1k(seed=1, smoke=True)
    workload.setup()
    return workload.op(0, harness=None)


def _churn() -> Outcome:
    harness = SimpleNamespace(end_of_setup=lambda: None, meter=SimpleNamespace(laps={}))
    return ChurnRf2(seed=1, smoke=True).op(0, harness)


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


@pytest.mark.parametrize("run", [_flood, _churn], ids=["flood_1k", "churn_rf2"])
def test_outcomes_do_not_depend_on_collector_timing(run):
    off, default, eager = (
        _run_with_collector(mode, run) for mode in ("off", "default", "eager")
    )
    assert off[1] == 0
    assert off == default == eager
