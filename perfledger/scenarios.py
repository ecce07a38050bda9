"""The benchmark's four workloads.

Each drives the program only through its public API, makes all of its
inputs from the seed, and checks what comes back.  A workload is a
*set-up* (built ``setup_reps`` times, each timed) followed by ``ops``
measured *ops* on the last build; ``churn_rf2`` builds a deployment per
op, so its set-up is the first lap of every op instead.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import BestPeerConfig, KeywordCorpus, build_network, random_graph
from repro.errors import HostOffline
from repro.eval.claims import verify_figure
from repro.eval.experiment import FigureResult
from repro.eval.figures import FigureParams, figure_5a
from repro.faults import FaultPlan, SimFaultInjector
from repro.net import LinkModel
from repro.replication import ReplicationPolicy
from repro.storm.template import clear_templates
from repro.util.retry import RetryPolicy
from repro.workloads import QueryWorkload
from repro.workloads.provision import provision_store


@dataclass
class Outcome:
    """What one op did, for the correctness gate and the digest."""

    attempted: int
    failed: int
    #: simulated observables of the op (hops, series, recall vector ...);
    #: its ``repr`` goes into ``sim_digest`` and must repeat exactly
    observed: Any
    #: deployments still alive whose per-host byte counts join the digest
    networks: list = field(default_factory=list)
    #: counts only the workload can see (faults applied, recall hits)
    counts: dict[str, int] = field(default_factory=dict)
    #: exceptions caught while the op ran, by type name
    errors: dict[str, int] = field(default_factory=dict)


class Workload:
    """One set of inputs.  ``ops`` is the count measured in a 10 s run."""

    name: str
    setup_reps: int
    warmups: int
    ops: int
    #: ops come in rounds of ``groups`` kinds (the sweep points of a
    #: figure); the op metric is the sum of the per-kind medians
    groups = 1
    #: True when every op builds (and drops) its own deployment
    deployment_per_op = False

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke

    def discard(self) -> None:
        """Let go of the last build so its memory can be collected."""

    def setup(self) -> None:
        """One timed set-up; the last one stays for the ops."""

    def op(self, index: int, harness) -> Outcome:
        """One timed op; ``harness`` is told of set-up ends and checkpoints."""
        raise NotImplementedError

    def warmup(self, index: int, harness) -> None:
        """One discarded op, so caches fill before anything is timed."""
        self.op(self.ops + index, harness)


# ---------------------------------------------------------------------------
# flood_1k / flood_4k: smallest messages, per-packet cost is everything
# ---------------------------------------------------------------------------

FLOOD_TTL = 24
NEEDLE = "needle"
PLANTED = (b"scaling-payload-a" * 4, b"scaling-payload-b" * 4)


class Flood(Workload):
    nodes: int
    smoke_nodes: int
    deployment = None

    def discard(self) -> None:
        self.deployment = None

    def setup(self) -> None:
        nodes = self.smoke_nodes if self.smoke else self.nodes
        topology = random_graph(nodes, degree=4, seed=self.seed)
        max_degree = max(len(topology.neighbors(i)) for i in range(nodes))
        config = BestPeerConfig(
            max_direct_peers=max(16, max_degree), strategy="static", ttl=FLOOD_TTL
        )
        deployment = build_network(nodes, config=config, topology=topology)
        # +0-10 % per directed edge, from crc32 of the host names: event
        # timestamps become unique, so only one firing order is legal and
        # any executor must reproduce the digest.
        network = deployment.network
        base = network.default_link
        for a, b in sorted(topology.edges):
            for src, dst in ((a, b), (b, a)):
                src_host = deployment.nodes[src].host
                dst_host = deployment.nodes[dst].host
                jitter = zlib.crc32(f"{src_host.name}->{dst_host.name}".encode()) / 2**32
                network.set_link(
                    src_host.address,
                    dst_host.address,
                    LinkModel(
                        latency=base.latency * (1.0 + 0.10 * jitter),
                        bandwidth=base.bandwidth,
                    ),
                )
        deployment.nodes[3].share([NEEDLE], PLANTED[0])
        deployment.nodes[nodes - 1].share([NEEDLE], PLANTED[1])
        self.deployment = deployment

    def op(self, index: int, harness) -> Outcome:
        base = self.deployment.base
        handle = base.issue_query(NEEDLE)
        self.deployment.sim.run()
        base.finish_query(handle)
        found = sorted(item.payload for answer in handle.answers for item in answer.items)
        hops = sorted(answer.hops for answer in handle.answers)
        return Outcome(
            1, int(found != sorted(PLANTED)), hops, networks=[self.deployment.network]
        )


class Flood1k(Flood):
    name = "flood_1k"
    nodes, smoke_nodes = 1000, 100
    setup_reps, warmups, ops = 8, 3, 50


class Flood4k(Flood):
    """Set-up is superlinear in nodes (LIGLO sorts all members per register,
    512 buffer frames per node), so ``setup_s`` and ``peak_rss_mb`` move
    here long before they move at 1k; per-packet cost should match
    ``flood_1k``, which cross-checks both."""

    name = "flood_4k"
    nodes, smoke_nodes = 4000, 200
    setup_reps, warmups, ops = 3, 1, 10


# ---------------------------------------------------------------------------
# fig5a_paper: the paper's workload, storm-bound, 1 KB answers
# ---------------------------------------------------------------------------

FIG5A_SIZES = (1, 2, 4, 8, 16, 24, 32)


class _InOrder:
    """A figure runner that runs the sweep's tasks one after the other (as
    the default does) and says so after each: one task is one deployment,
    whose counters must be read before it is garbage."""

    def __init__(self, after_task: Callable[[], None]):
        self.after_task = after_task

    def map_tasks(self, func: Callable, tasks: list) -> list:
        results = []
        for task in tasks:
            results.append(func(task))
            self.after_task()
        return results


class Fig5aPaper(Workload):
    """The opposite profile to the floods: storm and workloads dominate,
    answers are 1 KB; the set-up writes (bulk load, snapshot), the sweep
    reads (clones, scans), so an ingest-vs-scan trade shows."""

    name = "fig5a_paper"
    setup_reps, warmups, ops = 5, 1, 14
    groups = len(FIG5A_SIZES)
    deployment_per_op = True

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.params = FigureParams(
            objects_per_node=50 if smoke else 1000, object_size=1024, seed=seed
        )
        self._sweep: dict[int, FigureResult] = {}

    def setup(self) -> None:
        # Cold pass: bulk-load every store the sweep will need and
        # snapshot it, so the sweep itself only clones and scans.
        clear_templates()
        corpus = KeywordCorpus(self.params.corpus_size)
        for index in range(max(FIG5A_SIZES)):
            provision_store(
                index,
                count=self.params.objects_per_node,
                size=self.params.object_size,
                corpus=corpus,
                seed=self.params.seed,
            )

    def op(self, index: int, harness) -> Outcome:
        point = index % self.groups
        result = figure_5a(
            self.params, sizes=(FIG5A_SIZES[point],), runner=_InOrder(harness.checkpoint)
        )
        self._sweep[point] = result
        if point < self.groups - 1:
            return Outcome(0, 0, result.series)
        # The sweep's last point: the paper's claims must hold on the
        # series merged from all seven calls.
        merged = FigureResult(result.figure, result.title, result.x_label, result.y_label)
        for part in range(self.groups):
            for scheme, points in self._sweep[part].series.items():
                for x, y in points:
                    merged.add_point(scheme, x, y)
        holds = all(held for _claim, held in verify_figure("5a", merged))
        # The claims are about 1000 objects per node ("5a-mcs" does not
        # hold below that), so smoke scale evaluates but cannot enforce them.
        return Outcome(1, int(not holds and not self.smoke), result.series)

    def warmup(self, index: int, harness) -> None:
        figure_5a(self.params, sizes=(FIG5A_SIZES[2],))


# ---------------------------------------------------------------------------
# churn_rf2: many tiny deployments, faults, retries, replication
# ---------------------------------------------------------------------------

CHURN_NODES = 24
CHURN_QUERIES = 64
CHURN_HORIZON = 30.0
CHURN_RATE = 0.3
CHURN_QUIET_PERIOD = 2.0
CHURN_OBJECT_BYTES = 256


class ChurnRf2(Workload):
    """The layers the other workloads leave idle or use differently:
    cancel-heavy retry timers, ``no-route`` drops, LIGLO resolves and
    rejoins, reconfiguration after every query, replication, faults —
    on many tiny deployments, which is how every figure sweep builds."""

    name = "churn_rf2"
    setup_reps, warmups, ops = 0, 2, 100
    deployment_per_op = True

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        if smoke:
            self.ops = 5

    def op(self, index: int, harness) -> Outcome:
        try:
            return self._trial(self.seed * 1000 + index, harness)
        except Exception as exc:  # a trial that raises fails all its queries
            if "setup" not in harness.meter.laps:
                harness.end_of_setup()
            kind = type(exc).__name__
            return Outcome(CHURN_QUERIES, CHURN_QUERIES, ("raised", kind), errors={kind: 1})

    def _trial(self, seed: int, harness) -> Outcome:
        topology = random_graph(CHURN_NODES, degree=3, seed=seed)
        max_degree = max(len(topology.neighbors(i)) for i in range(CHURN_NODES))
        config = BestPeerConfig(
            max_direct_peers=max(8, max_degree),
            ttl=max(7, CHURN_NODES),
            strategy="maxcount",
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay=0.25, multiplier=2.0, max_delay=2.0, jitter=0.1
            ),
            suspect_after=2,
            retry_seed=seed,
            replication=ReplicationPolicy(rf=2, hot_rf=3, cache_capacity=32),
        )
        deployment = build_network(CHURN_NODES, config=config, topology=topology)
        # Object i lives on node i and matches keyword i-1 only.
        corpus = KeywordCorpus(CHURN_NODES - 1)
        payloads = {
            corpus.keyword(i - 1): i.to_bytes(4, "big") * (CHURN_OBJECT_BYTES // 4)
            for i in range(1, CHURN_NODES)
        }
        for node, (keyword, payload) in zip(deployment.nodes[1:], payloads.items()):
            node.share_many([([keyword], payload)])
        deployment.sim.run()  # replica offer/accept/push handshakes settle
        harness.end_of_setup()

        names = [node.name for node in deployment.nodes[1:]]  # the base never churns
        half = len(names) // 2
        plan = (
            FaultPlan.churn(
                names, CHURN_RATE, CHURN_HORIZON, seed=seed, min_downtime=2.0, max_downtime=8.0
            )
            .extended(FaultPlan.liglo_outage("liglo-0", CHURN_HORIZON * 0.3, 5.0))
            .extended(
                FaultPlan.partition_window(
                    [names[:half], names[half:]], CHURN_HORIZON * 0.6, 4.0
                )
            )
        )
        injector = SimFaultInjector(deployment, plan)
        injector.arm()
        base = deployment.base
        handles = []

        def issue(keyword: str) -> None:
            handles.append(base.issue_query(keyword, auto_finish_after=CHURN_QUIET_PERIOD))

        keywords = QueryWorkload(corpus, skew=1.0, seed=seed).keywords(CHURN_QUERIES)
        for number, keyword in enumerate(keywords):
            deployment.sim.schedule(
                2.0 + number * CHURN_HORIZON / CHURN_QUERIES, issue, keyword
            )
        # A crashed host's leftover timers and queued CPU work can still
        # fire and try to send; that HostOffline escapes the kernel loop.
        # The event is gone but the heap is intact, so the trial goes on
        # and the escape is counted instead of costing the whole trial.
        escaped = 0
        while True:
            try:
                deployment.sim.run()
                break
            except HostOffline:
                escaped += 1
        failed = CHURN_QUERIES - len(handles)
        for handle in handles:
            wrong = any(
                item.payload != payloads[handle.keyword]
                for answer in handle.answers
                for item in answer.items
            )
            failed += int(wrong or not handle.finished)
        recall = [handle.distinct_answer_count for handle in handles]
        hops = sorted(answer.hops for handle in handles for answer in handle.answers)
        applied = sum(injector.applied.values())
        return Outcome(
            CHURN_QUERIES,
            failed,
            (recall, hops, applied, escaped),
            networks=[deployment.network],
            counts={
                "faults.applied": applied,
                "faults.escaped_errors": escaped,
                "core.recall_hits": sum(1 for count in recall if count),
                "core.recall_queries": len(recall),
            },
            errors={"HostOffline": escaped} if escaped else {},
        )


WORKLOADS: tuple[type[Workload], ...] = (Flood1k, Flood4k, Fig5aPaper, ChurnRf2)
