"""One command for the repo's benchmark.

    python3 -m perfledger.run                       every workload, untraced then
                                                    traced; writes results/BENCH_*.json
    python3 -m perfledger.run --smoke               same code paths at toy scale,
                                                    numbers not comparable, nothing written
    python3 -m perfledger.run --workload W --seed N --seconds S --trace 0|1
                                                    one workload; the last line of
                                                    stdout is the result as JSON

Every workload runs in a fresh subprocess (``PYTHONHASHSEED=0``, no
``REPRO_*`` switches), so one workload's caches and peak memory never
leak into the next.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any

from perfledger import calibrate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


#: Parts that do work while a deployment or a store is set up.
SETUP_PARTS = (
    "sim", "net.send", "net.deliver", "codec.encode", "codec.decode", "storm.open",
    "storm.ingest", "storm.search", "workloads.provision", "liglo.server", "liglo.client",
    "core.build", "topology.build", "replication",
)  # fmt: skip


def per_layer_metrics(traced: dict, overhead: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric by name, from one traced result."""
    setup, op = traced["layers"]["setup"], traced["layers"]["op"]
    metrics: dict[str, tuple[float, str]] = {}
    for part, entry in op["parts"].items():
        if part != "driver":
            name = f"{part}_self_s" if "." in part else f"{part}.self_s"
            metrics[name] = (entry["self_s"], "s")
    for part in SETUP_PARTS:
        metrics[f"setup.{part.replace('.', '_')}_s"] = (setup["parts"][part]["self_s"], "s")

    def calls(table: dict, *names: str) -> float:
        return sum(table["spans"].get(name, {"calls": 0})["calls"] for name in names)

    def ratio(hit: float, miss: float) -> float:
        return hit / (hit + miss) if hit + miss else 0.0

    count = op["counts"]
    events = sum(
        span["calls"] for name, span in op["spans"].items() if name.startswith("event:")
    )
    metrics["sim.events"] = (events, "count")
    metrics["sim.us_per_event"] = (
        op["parts"]["sim"]["self_s"] / events * 1e6 if events else 0.0,
        "us",
    )
    for key in ("net.packets_delivered", "net.packets_dropped"):
        metrics[key] = (count.get(key, 0), "count")
    metrics["net.bytes_carried"] = (count.get("net.bytes_carried", 0), "B")
    metrics["codec.encode_calls"] = (calls(op, "call:WireEncoder.encode"), "count")
    metrics["codec.decode_calls"] = (calls(op, "call:Packet.payload"), "count")
    metrics["codec.encode_hit_ratio"] = (
        ratio(count.get("codec.encode_hits", 0), count.get("codec.encode_misses", 0)),
        "ratio",
    )
    for key in (
        "codec.control_frames",
        "codec.data_frames",
        "codec.pickle_payloads",
        "agents.executed",
        "agents.deduped",
    ):
        metrics[key] = (count.get(key, 0), "count")
    metrics["agents.useful_ratio"] = (
        ratio(count.get("agents.executed", 0), count.get("agents.deduped", 0)),
        "ratio",
    )
    metrics["storm.search_calls"] = (op["parts"]["storm.search"]["calls"], "count")
    metrics["storm.scan_cache_hit_ratio"] = (
        ratio(count.get("storm.scan_cache_hits", 0), count.get("storm.scan_cache_misses", 0)),
        "ratio",
    )
    reads, misses = count.get("storm.buffer_reads", 0), count.get("storm.buffer_misses", 0)
    metrics["storm.buffer_hit_ratio"] = (ratio(reads - misses, misses), "ratio")
    metrics["storm.objects_ingested"] = (count.get("storm.objects_ingested", 0), "count")
    metrics["workloads.provision_calls"] = (calls(op, "call:provision_store"), "count")
    metrics["liglo.registers"] = (calls(op, "handler:LigloServer._on_register"), "count")
    metrics["liglo.resolves"] = (calls(op, "handler:LigloServer._on_resolve"), "count")
    for key in (
        "liglo.retries",
        "core.queries",
        "core.answers",
        "core.request_retries",
        "core.request_timeouts",
        "replication.replicas_pushed",
        "replication.cache_hits",
        "faults.applied",
        "faults.escaped_errors",
    ):
        metrics[key] = (count.get(key, 0), "count")
    metrics["core.recall"] = (
        ratio(
            count.get("core.recall_hits", 0),
            count.get("core.recall_queries", 0) - count.get("core.recall_hits", 0),
        ),
        "ratio",
    )
    metrics["setup.packets_delivered"] = (
        setup["counts"].get("net.packets_delivered", 0),
        "count",
    )
    metrics["setup.liglo_registers"] = (
        calls(setup, "handler:LigloServer._on_register"),
        "count",
    )
    metrics["setup.storm_objects_ingested"] = (
        setup["counts"].get("storm.objects_ingested", 0),
        "count",
    )
    metrics["driver.trace_overhead"] = (overhead, "ratio")
    metrics["driver.unattributed_share"] = (op["parts"]["driver"]["share"], "ratio")
    units = {"driver.noisy_ops": "count"}
    for key, value in traced["driver"].items():
        metrics[key] = (value, units.get(key, "ms"))
    return metrics


# ---------------------------------------------------------------------------
# Parent: spawn children, gate, report
# ---------------------------------------------------------------------------


class BenchmarkError(Exception):
    """The benchmark could not produce a trustworthy result."""


def spawn(workload: str, seed: int, seconds: int, smoke: bool, **flags) -> dict:
    """Run one workload in a fresh interpreter and return its raw result."""
    command = [
        sys.executable, "-m", "perfledger.run", "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]  # fmt: skip
    if smoke:
        command.append("--smoke")
    for flag, value in flags.items():
        if value:
            command.append(f"--{flag.replace('_', '-')}")
            if value is not True:
                command.append(str(value))
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise BenchmarkError(f"{workload}: child exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def same_prefix(first: dict, second: dict) -> bool:
    """Do two runs of one (workload, seed) agree on every op both ran?"""
    common = min(len(first["op_digests"]), len(second["op_digests"]))
    return first["op_digests"][common - 1] == second["op_digests"][common - 1]


def measure_e2e(workload: str, seed: int, seconds: int, smoke: bool) -> dict:
    """The untraced run, repeated once when the machine was too restless."""
    result = spawn(workload, seed, seconds, smoke)
    if result["noisy_share"] > calibrate.NOISY_SHARE_LIMIT:
        again = spawn(workload, seed, seconds, smoke)
        if not same_prefix(result, again):
            raise BenchmarkError(f"{workload}: seed {seed} replayed with a different sim_digest")
        if again["noisy_share"] < result["noisy_share"]:
            result = again
    return result


def measure_layers(
    workload: str, seed: int, seconds: int, smoke: bool,
    reference: dict | None = None, trace_file: str | None = None,
) -> tuple[dict, float]:  # fmt: skip
    """The traced run and its overhead against an untraced reference."""
    if reference is None:
        reference = spawn(workload, seed, seconds, smoke, short=True)
    traced = spawn(workload, seed, seconds, smoke, short=True, trace=True, trace_file=trace_file)
    if not same_prefix(reference, traced):
        raise BenchmarkError(
            f"{workload}: traced and untraced runs disagree on sim_digest "
            "(the wrappers perturbed the simulation)"
        )
    overhead = traced["e2e"]["op_ms"] / reference["e2e"]["op_ms"] - 1.0
    return traced, overhead


def contract_line(result: dict, metrics: dict[str, tuple[float, str]], wanted: list[dict]) -> str:
    """The one JSON object the benchmark contract asks for."""
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                spec["name"]: {"value": metrics[spec["name"]][0], "unit": spec["unit"]}
                for spec in wanted
            },
        }
    )


def e2e_metrics(result: dict, contract: dict) -> dict[str, tuple[float, str]]:
    units = {spec["name"]: spec["unit"] for spec in contract["end_to_end"]}
    return {name: (value, units[name]) for name, value in result["e2e"].items()}


def stamp(contract: dict, seed: int, results: list[dict]) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit or "unknown",
        "seed": seed,
        "run_seconds": contract["run_seconds"],
        "unit_ref_s": calibrate.UNIT_REF,
        "calibration_unit_ms": statistics.median(
            [result["driver"]["driver.calibration_ms"] for result in results]
        ),
    }


def run_all(seed: int, seconds: int, smoke: bool, contract: dict) -> int:
    """Every workload, untraced then traced; print the ledger, write it."""
    e2e_ledger: dict[str, Any] = {}
    layer_ledger: dict[str, Any] = {}
    raw = []
    failed = 0
    for spec in contract["workloads"]:
        name = spec["name"]
        trace_file = None if smoke else os.path.join(RESULTS_DIR, f"trace_{name}.json")
        if trace_file:
            os.makedirs(RESULTS_DIR, exist_ok=True)
        result = measure_e2e(name, seed, seconds, smoke)
        traced, overhead = measure_layers(name, seed, seconds, smoke, result, trace_file)
        raw += [result, traced]
        failed += result["failed"]
        metrics = e2e_metrics(result, contract)
        layers = per_layer_metrics(traced, overhead)
        print(f"\n== {name}: {spec['why']}")
        print(
            f"   attempted_ops {result['attempted']}  failed_ops {result['failed']}"
            f"  errors {result['errors'] or '-'}  sim_digest {result['sim_digest'][:16]}"
            f"  noisy {result['noisy_share']:.0%}"
        )
        for key, (value, unit) in {**metrics, **layers}.items():
            print(f"   {key:32s} {value:14.6g} {unit}")
        e2e_ledger[name] = {
            "why": spec["why"],
            "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
            **{key: result[key] for key in (
                "attempted", "failed", "errors", "sim_digest", "setup_reps", "ops",
                "packets_per_op", "noisy_share", "samples",
            )},
        }  # fmt: skip
        layer_ledger[name] = {
            "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in layers.items()},
            "sim_digest": traced["sim_digest"],
            "ops": traced["ops"],
            "phases": traced["layers"],
        }
    if smoke:
        print("\nsmoke scale: numbers are not comparable; nothing written")
    else:
        header = stamp(contract, seed, raw)
        for filename, body in (("BENCH_e2e.json", e2e_ledger), ("BENCH_layers.json", layer_ledger)):
            with open(os.path.join(RESULTS_DIR, filename), "w") as handle:
                json.dump({"stamp": header, "workloads": body}, handle, indent=1, sort_keys=True)
                handle.write("\n")
        print(f"\nwrote {RESULTS_DIR}/BENCH_e2e.json and BENCH_layers.json")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--smoke", action="store_true")
    for internal in ("--child", "--short"):
        parser.add_argument(internal, action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--trace-file", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from perfledger import harness

        result = harness.measure(
            args.workload, args.seed, args.seconds, args.smoke,
            bool(args.trace), args.short, args.trace_file,
        )  # fmt: skip
        print(json.dumps(result))
        return 0
    try:
        if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
            raise BenchmarkError("no program to measure: src/repro is missing")
        if args.workload is None:
            return run_all(args.seed, args.seconds, args.smoke, contract)
        if args.trace:
            traced, overhead = measure_layers(args.workload, args.seed, args.seconds, args.smoke)
            print(contract_line(traced, per_layer_metrics(traced, overhead), contract["per_layer"]))
        else:
            result = measure_e2e(args.workload, args.seed, args.seconds, args.smoke)
            print(contract_line(result, e2e_metrics(result, contract), contract["end_to_end"]))
    except BenchmarkError as error:
        print(f"perfledger: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
