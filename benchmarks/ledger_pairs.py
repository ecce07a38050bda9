"""Paired perf-ledger comparison of two checkouts (perfledger/README.md,
"Comparing two commits").

    python3 benchmarks/ledger_pairs.py <parent-checkout> <change-checkout> \\
        --workload flood_1k [fig5a_paper ... | all] --pairs 10 [--seconds 10]

Pair *i* runs a workload once in each checkout on seed *i*, through that
checkout's own ``perfledger.run.measure_e2e`` (fresh child process,
calibrated, one re-run when the box was restless); odd pairs run the
parent first, even pairs the change.  Per workload (``all``: every one
``BENCHMARK.json`` names) every run is printed, then each end-to-end
metric's quartiles per side, the ratio of medians, the pairs the change
won (ties count for neither), whether the medians differ by more than the
parent's own interquartile distance, and the metric's verdict against its
``BENCHMARK.json`` bound: ``worse`` when the change's median is worse than
the parent's by more than the bound, ``unresolved`` when it is not but the
parent's own spread is wider than the bound (and the change did not win
every run against every run), else ``ok``.  A final verdict lists what
failed.  Exits non-zero when any metric of any workload is ``worse``, or a
pair disagrees on ``sim_digest``, ``attempted`` or ``failed`` — the two
sides then did not simulate the same thing and the timings mean nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

_RUN_ONE = (
    "import json, sys; from perfledger import run; "
    "print(json.dumps(run.measure_e2e(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), False)))"
)
AGREE = ("sim_digest", "attempted", "failed")


def run_one(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """One untraced ledger run of ``workload`` inside ``checkout``."""
    done = subprocess.run(
        [sys.executable, "-c", _RUN_ONE, workload, str(seed), str(seconds)],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True,
    )  # fmt: skip
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def compare(
    workload: str, checkouts: dict[str, str], pairs: int, seconds: int, metrics: list[dict]
) -> list[str]:
    """Run and print one workload's pairs; returns what failed (if anything)."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    failures = []
    print(f"\n{workload}, {pairs} pairs, --seconds {seconds}")
    print("seed side   " + " ".join(f"{m['name']:>14s}" for m in metrics) + "  noisy  sim_digest")
    for seed in range(1, pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        pair = {side: run_one(checkouts[side], workload, seed, seconds) for side in order}
        for side in order:
            result = pair[side]
            runs[side].append(result)
            print(
                f"{seed:4d} {side:6s} "
                + " ".join(f"{result['e2e'][m['name']]:14.4f}" for m in metrics)
                + f"  {result['noisy_share']:5.0%}  {result['sim_digest'][:16]}"
                + f"  attempted {result['attempted']} failed {result['failed']}"
                + f" errors {result['errors'] or '-'}",
                flush=True,
            )
        for key in AGREE:
            if pair["parent"][key] != pair["change"][key]:
                failures.append(
                    f"{workload} seed {seed}: {key} parent {pair['parent'][key]}"
                    f" != change {pair['change'][key]}"
                )

    print(
        f"\n{'metric':14s} {'unit':4s} {'parent q1/median/q3':>30s} {'change q1/median/q3':>30s}"
        "  change/parent  wins  gap > parent IQR  within bound"
    )
    for spec in metrics:
        name, bound = spec["name"], spec["bound"]
        parent = [result["e2e"][name] for result in runs["parent"]]
        change = [result["e2e"][name] for result in runs["change"]]
        better = (lambda c, p: c < p) if spec["better"] == "lower" else (lambda c, p: c > p)
        wins = sum(better(c, p) for c, p in zip(change, parent))
        ties = sum(c == p for c, p in zip(change, parent))
        p_low, p_median, p_high = quartiles(parent)
        c_low, c_median, c_high = quartiles(change)
        ratio = c_median / p_median
        worsening = ratio - 1.0 if spec["better"] == "lower" else 1.0 / ratio - 1.0
        if worsening > bound:
            verdict = "worse"
            failures.append(f"{workload}: {name} x{ratio:.3f}, bound {bound:.0%}")
        elif (p_high - p_low) / p_median > bound and not all(
            better(c, p) for c in change for p in parent
        ):
            verdict = "unresolved"
        else:
            verdict = "ok"
        print(
            f"{name:14s} {spec['unit']:4s} "
            f"{f'{p_low:.4g} / {p_median:.4g} / {p_high:.4g}':>30s} "
            f"{f'{c_low:.4g} / {c_median:.4g} / {c_high:.4g}':>30s}"
            f"  {ratio:13.3f}  {wins}/{len(parent) - ties}"
            f"  {'yes' if abs(c_median - p_median) > p_high - p_low else 'no':>16s}"
            f"  {verdict} ({bound:.0%})"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument(
        "--workload", required=True, nargs="+",
        help="one or more BENCHMARK.json workloads, or 'all'",
    )  # fmt: skip
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, help="default: the contract's run_seconds")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    known = [spec["name"] for spec in contract["workloads"]]
    workloads = known if args.workload == ["all"] else args.workload
    unknown = [name for name in workloads if name not in known]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; BENCHMARK.json has {known}")
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    failures = []
    for workload in workloads:
        failures += compare(workload, checkouts, args.pairs, seconds, contract["end_to_end"])
    print(f"\nverdict: {'FAIL' if failures else 'ok'} ({', '.join(workloads)})")
    for line in failures:
        print(f"  {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
