"""Self-tests of the benchmark (smoke scale, < 30 s, run explicitly).

    python3 -m pytest perfledger/test_perf.py

Not part of tier-1: ``pyproject.toml`` collects ``tests/`` only.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfledger import calibrate, run, scenarios  # noqa: E402

CONTRACT = run.load_contract()
WORKLOADS = [spec["name"] for spec in CONTRACT["workloads"]]
#: layers the issue predicts idle: (metric, workloads, share of the traced op)
IDLE = (
    ("replication.self_s", ("flood_1k", "flood_4k", "fig5a_paper"), 0.01),
    ("faults.self_s", ("flood_1k", "flood_4k", "fig5a_paper"), 0.01),
    ("storm.search_self_s", ("flood_1k", "flood_4k"), 0.03),
    ("baselines.self_s", ("flood_1k", "flood_4k", "churn_rf2"), 0.01),
)


@pytest.fixture(scope="module")
def traced() -> dict[str, tuple[dict, float]]:
    """One short traced run (and its untraced twin) per workload.

    ``measure_layers`` raises when the two disagree on ``sim_digest``,
    so getting here at all proves the wrappers perturb nothing.
    """
    return {name: run.measure_layers(name, 0, 2, smoke=True) for name in WORKLOADS}


def test_workloads_match_the_contract():
    assert WORKLOADS == [cls.name for cls in scenarios.WORKLOADS]


def test_end_to_end_names_and_replay():
    first = run.spawn("flood_1k", 7, 2, smoke=True)
    again = run.spawn("flood_1k", 7, 2, smoke=True)
    other = run.spawn("flood_1k", 8, 2, smoke=True)
    assert sorted(first["e2e"]) == sorted(spec["name"] for spec in CONTRACT["end_to_end"])
    assert all(value > 0 for value in first["e2e"].values())
    assert first["sim_digest"] == again["sim_digest"] != other["sim_digest"]
    assert first["failed"] == 0 and first["attempted"] == first["ops"]
    line = json.loads(run.contract_line(first, run.e2e_metrics(first, CONTRACT), CONTRACT["end_to_end"]))
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"] and line["correct"]


def test_per_layer_names_match_the_contract(traced):
    wanted = {spec["name"]: spec["unit"] for spec in CONTRACT["per_layer"]}
    for result, overhead in traced.values():
        metrics = run.per_layer_metrics(result, overhead)
        assert {name: unit for name, (_value, unit) in metrics.items()} == wanted


def test_layer_self_times_add_up(traced):
    for name, (result, _overhead) in traced.items():
        check = result["layers"]["check"]
        assert check["span_s"] == pytest.approx(check["clock_s"], rel=0.02), name
        for phase in ("setup", "op"):
            table = result["layers"][phase]
            total = sum(entry["self_s"] for entry in table["parts"].values())
            assert total + table["wrapper_s"] == pytest.approx(table["traced_s"], rel=1e-6), name
        assert result["layers"]["op"]["parts"]["driver"]["share"] < 0.05, name


def test_layers_predicted_idle_are_idle(traced):
    for metric, workloads, limit in IDLE:
        for name in workloads:
            result, overhead = traced[name]
            value = run.per_layer_metrics(result, overhead)[metric][0]
            assert value < limit * result["layers"]["op"]["traced_s"], (metric, name)


def test_churn_uses_the_layers_idle_elsewhere(traced):
    metrics = run.per_layer_metrics(*traced["churn_rf2"])
    for name in ("replication.self_s", "faults.self_s", "faults.applied", "net.packets_dropped"):
        assert metrics[name][0] > 0, name


def test_calibrated_seconds_arithmetic():
    unit = calibrate.UNIT_REF
    even = calibrate.Sample(1.0, 1.0, [unit] * 10, [unit] * 10, [], {"setup": 0.25})
    slow = calibrate.Sample(2.0, 2.0, [2 * unit] * 10, [2 * unit] * 10, [2 * unit] * 5)
    torn = calibrate.Sample(9.0, 9.0, [unit] * 10, [1.2 * unit] * 10, [])
    assert even.calibrated == pytest.approx(1.0) and slow.calibrated == pytest.approx(1.0)
    assert not even.noisy and not slow.noisy and torn.noisy
    assert calibrate.calibrated_median([even, slow, torn]) == pytest.approx(1.0)
    assert calibrate.calibrated_median([even], lap="setup") == pytest.approx(0.25)
    assert calibrate.calibrated_median([even], lap="setup", rest=True) == pytest.approx(0.75)
    assert calibrate.noisy_share([even, slow, torn]) == pytest.approx(1 / 3)


def test_meter_samples_speed_inside_the_op():
    meter = calibrate.Meter()

    def op():
        total = 0
        for i in range(2_000_000):
            total += i
        return total

    _result, sample = meter.measure(op)
    assert len(sample.ticks) >= 1 and sample.wall > 0 and sample.calibrated > 0


def test_a_trial_that_raises_fails_all_its_queries(monkeypatch):
    class Harness:
        meter = calibrate.Meter()
        ended = 0

        def end_of_setup(self):
            self.ended += 1

    def boom(self, seed, harness):
        raise KeyError("boom")

    monkeypatch.setattr(scenarios.ChurnRf2, "_trial", boom)
    harness = Harness()
    outcome = scenarios.ChurnRf2(0, smoke=True).op(0, harness)
    assert (outcome.attempted, outcome.failed) == (scenarios.CHURN_QUERIES,) * 2
    assert outcome.errors == {"KeyError": 1} and harness.ended == 1
