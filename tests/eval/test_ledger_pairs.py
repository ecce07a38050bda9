"""``benchmarks/ledger_pairs.py``: the verdict, on canned ledger runs."""

from __future__ import annotations

import json
import os

import pytest

from benchmarks import ledger_pairs

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    CONTRACT = json.load(handle)
WORKLOADS = [spec["name"] for spec in CONTRACT["workloads"]]


def _fake_ledger(monkeypatch, slow: dict | None = None, digest_of=lambda side, seed: seed):
    """Replace the child process: every metric reads 100, times what ``slow``
    says for ``(workload, metric)`` on the change side."""
    calls = []

    def run_one(checkout, workload, seed, seconds):
        side = os.path.basename(checkout)
        calls.append((side, workload, seed))
        e2e = {
            spec["name"]: 100.0
            * ((slow or {}).get((workload, spec["name"]), 1.0) if side == "change" else 1.0)
            for spec in CONTRACT["end_to_end"]
        }
        return {
            "e2e": e2e, "noisy_share": 0.0, "sim_digest": f"{digest_of(side, seed):016d}",
            "attempted": 1, "failed": 0, "errors": {},
        }  # fmt: skip

    monkeypatch.setattr(ledger_pairs, "run_one", run_one)
    return calls


def _main(tmp_path, *args) -> int:
    change = tmp_path / "change"
    change.mkdir(exist_ok=True)
    (change / "BENCHMARK.json").write_text(json.dumps(CONTRACT))
    return ledger_pairs.main([str(tmp_path / "parent"), str(change), "--pairs", "2", *args])


def test_all_runs_every_workload_alternating(monkeypatch, tmp_path, capsys):
    calls = _fake_ledger(monkeypatch)
    assert _main(tmp_path, "--workload", "all") == 0
    assert [workload for _, workload, _ in calls[::4]] == WORKLOADS
    assert [side for side, _, _ in calls[:4]] == ["parent", "change", "change", "parent"]
    out = capsys.readouterr().out
    assert out.count("change/parent") == len(WORKLOADS)  # one table each
    assert f"verdict: ok ({', '.join(WORKLOADS)})" in out


def test_a_metric_past_its_bound_fails_the_run(monkeypatch, tmp_path, capsys):
    # peak_rss_mb's bound is 5 %: +4 % passes, +6 % on one workload fails.
    _fake_ledger(monkeypatch, slow={("flood_1k", "peak_rss_mb"): 1.04})
    assert _main(tmp_path, "--workload", "flood_1k", "churn_rf2") == 0
    _fake_ledger(monkeypatch, slow={("churn_rf2", "peak_rss_mb"): 1.06})
    assert _main(tmp_path, "--workload", "flood_1k", "churn_rf2") == 1
    out = capsys.readouterr().out
    assert "verdict: FAIL" in out and "churn_rf2: peak_rss_mb x1.060, bound 5%" in out
    assert out.count("worse (5%)") == 1


def test_a_digest_disagreement_fails_the_run(monkeypatch, tmp_path, capsys):
    _fake_ledger(monkeypatch, digest_of=lambda side, seed: seed + (side == "change" and seed == 2))
    assert _main(tmp_path, "--workload", "fig5a_paper") == 1
    assert "fig5a_paper seed 2: sim_digest" in capsys.readouterr().out


def test_unknown_workload_is_refused(monkeypatch, tmp_path):
    calls = _fake_ledger(monkeypatch)
    with pytest.raises(SystemExit):
        _main(tmp_path, "--workload", "flood_1k", "nope")
    assert not calls
