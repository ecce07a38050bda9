"""The churn figure replays bit-identically from its seed.

This is the acceptance test for the fault subsystem: a fault plan with
node churn, a LIGLO outage, and a transient partition produces the
*same* rich observables — recall series, per-answer hop counts, bytes
on the wire, drop counters, fault application counts — on every run
with the same seed.  Replays are compared on whole trial dicts, every
key.
"""

from __future__ import annotations

import pytest

from dataclasses import replace

from repro.eval.churn import churn_trial, figure_churn

from tests.support import SMOKE


@pytest.fixture(scope="module")
def baseline():
    result = figure_churn(SMOKE)
    return result.series, result.trials


class TestSeededReplay:
    def test_second_run_is_bit_identical(self, baseline):
        series, trials = baseline
        again = figure_churn(SMOKE)
        assert again.series == series
        assert again.trials == trials

    def test_different_seed_changes_fault_timeline(self, baseline):
        _series, trials = baseline
        reseeded = figure_churn(replace(SMOKE, seed=1))
        assert reseeded.trials != trials


class TestShape:
    def test_healthy_network_answers_in_full(self, baseline):
        series, _ = baseline
        for name in ("BPR", "BPS"):
            points = dict(series[name])
            assert points[0.0] == 1.0

    def test_faults_fired_at_nonzero_rate(self, baseline):
        _, trials = baseline
        for trial in trials:
            faults = trial["faults_applied"]
            if trial["rate"] == 0.0:
                assert faults == {}
            else:
                assert faults.get("node-crash", 0) >= 1
                assert faults.get("liglo-down", 0) == 1
                assert faults.get("partition", 0) == 1

    def test_trial_is_directly_replayable(self):
        a = churn_trial(("BPR", 0.5, SMOKE))
        b = churn_trial(("BPR", 0.5, SMOKE))
        assert a == b
