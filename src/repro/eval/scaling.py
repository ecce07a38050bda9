"""Strong/weak scaling of the sharded event kernel (the 10k-node figure).

The paper's largest experiment is 64 nodes; this figure asks what the
reproduction's kernel does at 1k-10k.  The workload is a seeded
random-graph flood — every node forwards, so event work spreads across
the whole overlay instead of piling onto a star hub — executed three
ways:

* the serial kernel (the reference, and the shards=1 point);
* the lockstep sharded executor (``build_network(shards=N)``), which is
  bit-identical to serial by construction and measures pure sharding
  overhead;
* the distributed executor (:func:`repro.net.sharding.run_distributed`),
  one forked worker per shard draining conservative windows.

**Latency jitter makes the distributed runs exactly comparable.**  With
one uniform link latency, flood arrivals tie constantly and the
distributed executor's ``(origin_shard, origin_seq)`` tie-break can
legally reorder equal-time deliveries (observable as a few hosts
swapping agent source-shipping bytes).  The scaling workload therefore
derives a deterministic per-edge latency perturbation (+0-10%, crc32 of
the directed pair) so event timestamps are unique in practice — under
unique timestamps the conservative barrier admits exactly one firing
order, the serial kernel's, and every executor must agree on *all*
observables.  Each distributed point carries an ``identical`` flag
recording that byte-for-byte check against its serial reference.

Speedups are reported two ways, both in every trial dict:

* ``measured``: serial wall-clock over distributed wall-clock on *this*
  machine — honest, and meaningless without ``available_cores``;
* ``projected``: serial CPU-seconds over the barrier's critical path
  (sum over windows of the slowest shard's CPU-seconds) — what the
  window schedule would cost with one real core per shard.
"""

from __future__ import annotations

import os
import time
import zlib

from repro.core.builder import build_network
from repro.core.config import BestPeerConfig
from repro.errors import BestPeerError
from repro.eval.experiment import ExperimentRunner, FigureResult
from repro.eval.figures import FigureParams
from repro.net.link import LinkModel
from repro.net.sharding import run_distributed
from repro.topology.builders import random_graph

#: Flood TTL: generous enough to reach every node of a degree-4
#: random graph at any swept size (diameter grows ~log n).
FLOOD_TTL = 24
#: Maximum relative latency perturbation (+10% of the default link).
JITTER_SPAN = 0.10

DEFAULT_STRONG_NODES = (1000,)
DEFAULT_SHARDS = (1, 2, 4)


def _detail_cell(trial: dict) -> str:
    if trial["executor"] == "serial":
        return f"cpu={trial['cpu_seconds']}s"
    if trial["executor"] == "lockstep":
        return f"overhead={trial['overhead_vs_serial']}x"
    return (
        f"critical={trial['critical_path_seconds']}s "
        f"proj={trial['projected_speedup']}x "
        f"meas={trial['measured_speedup']}x"
    )


#: The CLI's per-trial table: the evidence behind each speedup number —
#: wall and CPU (or critical-path) seconds, barrier traffic, and the
#: determinism check against the serial reference run.
TRIAL_COLUMNS = (
    ("executor", "executor"),
    ("nodes", "node_count"),
    ("shards", "shards"),
    ("wall s", "wall_seconds"),
    ("barrier", lambda trial: trial.get("barrier_messages", "-")),
    ("identical", lambda trial: "yes" if trial["identical"] else "NO"),
    ("detail", _detail_cell),
)


def _edge_jitter(src_name: str, dst_name: str) -> float:
    """Deterministic per-directed-edge latency factor in [0, 1)."""
    key = f"{src_name}->{dst_name}".encode("utf-8")
    return zlib.crc32(key) / 2**32


def _apply_latency_jitter(deployment, topology) -> None:
    """Give every overlay edge (both directions) a unique-ish latency.

    Unique event timestamps collapse the tie-break question: all three
    executors must then fire in the identical order.  Answer traffic
    (responder -> base) rides the default link; only flood forwarding —
    where equal-time collisions actually happen — is perturbed.
    """
    network = deployment.network
    base = network.default_link
    for a, b in sorted(topology.edges):
        for src, dst in ((a, b), (b, a)):
            src_host = deployment.nodes[src].host
            dst_host = deployment.nodes[dst].host
            factor = 1.0 + JITTER_SPAN * _edge_jitter(src_host.name, dst_host.name)
            network.set_link(
                src_host.address,
                dst_host.address,
                LinkModel(
                    latency=base.latency * factor,
                    bandwidth=base.bandwidth,
                ),
            )


def _flood_deployment(
    node_count: int,
    seed: int,
    shards: int | None = None,
    shard_mode: str = "locality",
):
    topology = random_graph(node_count, degree=4, seed=seed)
    max_degree = max(
        len(topology.neighbors(index)) for index in range(node_count)
    )
    config = BestPeerConfig(
        max_direct_peers=max(16, max_degree),
        strategy="static",
        ttl=FLOOD_TTL,
    )
    deployment = build_network(
        node_count,
        config=config,
        topology=topology,
        shards=shards,
        shard_mode=shard_mode,
    )
    _apply_latency_jitter(deployment, topology)
    deployment.nodes[3].share(["needle"], b"scaling-payload-a" * 4)
    deployment.nodes[node_count - 1].share(["needle"], b"scaling-payload-b" * 4)
    return deployment


def _observables(network) -> tuple:
    """The byte-for-byte comparison key shared by all three executors."""
    return (
        [host.bytes_sent for host in network.hosts.values()],
        network.bytes_carried,
        network.packets_delivered,
        network.packets_dropped,
    )


def _issue_queries(deployment, queries: int) -> list:
    handles = []
    for _ in range(queries):
        handles.append(deployment.base.issue_query("needle"))
    return handles


def _serial_trial(node_count: int, queries: int, seed: int) -> dict:
    deployment = _flood_deployment(node_count, seed)
    _issue_queries(deployment, queries)
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    deployment.sim.run()
    cpu = time.process_time() - cpu_start
    wall = time.perf_counter() - wall_start
    observables = _observables(deployment.network)
    return {
        "executor": "serial",
        "node_count": node_count,
        "shards": 1,
        "wall_seconds": round(wall, 4),
        "cpu_seconds": round(cpu, 4),
        "packets_delivered": observables[2],
        "bytes_carried": observables[1],
        "identical": True,
        "_observables": observables,
    }


def _lockstep_trial(node_count: int, queries: int, seed: int, shards: int, reference: dict) -> dict:
    deployment = _flood_deployment(node_count, seed, shards=shards)
    _issue_queries(deployment, queries)
    wall_start = time.perf_counter()
    deployment.sim.run()
    wall = time.perf_counter() - wall_start
    observables = _observables(deployment.network)
    stats = deployment.cluster.sim.stats
    return {
        "executor": "lockstep",
        "node_count": node_count,
        "shards": shards,
        "wall_seconds": round(wall, 4),
        "overhead_vs_serial": round(wall / reference["wall_seconds"], 3)
        if reference["wall_seconds"]
        else None,
        "barrier_messages": stats.messages,
        "packets_delivered": observables[2],
        "bytes_carried": observables[1],
        "identical": observables == reference["_observables"],
    }


def _distributed_trial(node_count: int, queries: int, seed: int, shards: int, reference: dict) -> dict:
    deployment = _flood_deployment(node_count, seed, shards=shards)
    _issue_queries(deployment, queries)
    report = run_distributed(deployment.cluster)
    merged = report.merged_counters()
    observables = (
        report.host_bytes(),
        merged["bytes_carried"],
        merged["packets_delivered"],
        merged["packets_dropped"],
    )
    busy_total = sum(report.busy_per_shard)
    critical = report.critical_path_seconds
    serial_wall = reference["wall_seconds"]
    serial_cpu = reference["cpu_seconds"]
    return {
        "executor": "distributed",
        "node_count": node_count,
        "shards": shards,
        "wall_seconds": round(report.wall_seconds, 4),
        "busy_per_shard": [round(busy, 4) for busy in report.busy_per_shard],
        "busy_total_seconds": round(busy_total, 4),
        "critical_path_seconds": round(critical, 4),
        "windows": report.windows,
        "barrier_messages": report.messages,
        "measured_speedup": round(serial_wall / report.wall_seconds, 3)
        if report.wall_seconds
        else None,
        "projected_speedup": round(serial_cpu / critical, 3) if critical else None,
        "balance": round(busy_total / (critical * shards), 3) if critical else None,
        "packets_delivered": observables[2],
        "bytes_carried": observables[1],
        "identical": observables == reference["_observables"],
    }


def figure_scaling(
    params: FigureParams | None = None,
    node_counts: tuple[int, ...] = DEFAULT_STRONG_NODES,
    shard_counts: tuple[int, ...] = DEFAULT_SHARDS,
    weak_base: int | None = None,
    runner: ExperimentRunner | None = None,
) -> FigureResult:
    """Strong (and optionally weak) scaling of the flood workload.

    Strong series, per swept ``node_count``: ``measured`` and
    ``projected`` speedup vs shard count, anchored at ``(1, 1.0)``.
    With ``weak_base``, a weak-scaling series grows the problem with the
    shard count (``weak_base`` nodes per shard) and plots projected
    speedup.  ``runner`` is accepted for CLI uniformity and ignored —
    the executors under test own all parallelism.  Trial details ride
    along as ``result.trials``.
    """
    del runner  # the executors under test manage their own processes
    params = params if params is not None else FigureParams()
    queries = max(1, params.queries)
    seed = params.seed
    for shards in shard_counts:
        if shards < 1:
            raise BestPeerError(f"shard counts must be >= 1, got {shards}")
    result = FigureResult(
        figure="scaling",
        title=(
            "Sharded-kernel scaling (flood, "
            f"{max(list(node_counts) + [weak_base * max(shard_counts)] if weak_base else node_counts)}"
            " nodes max)"
        ),
        x_label="shards",
        y_label="speedup vs serial",
        notes=(
            "random-graph flood with per-edge latency jitter; measured = "
            "wall-clock on this machine, projected = serial CPU over the "
            "barrier critical path (one core per shard)"
        ),
    )
    trials = result.trials
    for node_count in node_counts:
        reference = _serial_trial(node_count, queries, seed)
        trials.append(reference)
        label = f"{node_count}n"
        result.add_point(f"measured {label}", 1, 1.0)
        result.add_point(f"projected {label}", 1, 1.0)
        for shards in shard_counts:
            if shards == 1:
                continue
            trials.append(
                _lockstep_trial(node_count, queries, seed, shards, reference)
            )
            distributed = _distributed_trial(
                node_count, queries, seed, shards, reference
            )
            trials.append(distributed)
            result.add_point(
                f"measured {label}", shards, distributed["measured_speedup"]
            )
            result.add_point(
                f"projected {label}", shards, distributed["projected_speedup"]
            )
    if weak_base is not None:
        for shards in shard_counts:
            node_count = weak_base * shards
            reference = _serial_trial(node_count, queries, seed)
            trials.append(reference)
            if shards == 1:
                result.add_point("weak projected", 1, 1.0)
                continue
            distributed = _distributed_trial(
                node_count, queries, seed, shards, reference
            )
            trials.append(distributed)
            result.add_point(
                "weak projected", shards, distributed["projected_speedup"]
            )
    for trial in trials:
        trial.pop("_observables", None)
    return result


def available_cores() -> int:
    """CPU cores the measured numbers had to share (artifact context)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1
