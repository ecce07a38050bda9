"""Ablation experiments for the design choices DESIGN.md calls out.

These go beyond the paper's figures: each ablation isolates one design
decision of BestPeer (or of this reproduction's substrate) and measures
its effect, using the same harness as the figure experiments.
"""

from __future__ import annotations

from repro.agents.costs import AgentCosts
from repro.eval.experiment import FigureResult
from repro.eval.figures import FigureParams, bestpeer_runs
from repro.eval.metrics import completion_time
from repro.storm.disk import InMemoryDisk
from repro.storm.replacement import make_strategy
from repro.storm.store import StorM
from repro.topology.builders import line, tree
from repro.util.compression import GzipCodec, IdentityCodec
from repro.workloads.corpus import KeywordCorpus, generate_objects
from repro.workloads.placement import AnswerPlacement
from repro.workloads.replication import ReplicationSpec

#: Strategies compared by the reconfiguration ablation.
RECONFIG_STRATEGIES = ("maxcount", "minhops", "random", "static")


def ablation_strategy(
    params: FigureParams | None = None,
    node_count: int = 16,
    holder_count: int = 3,
) -> FigureResult:
    """Reconfiguration strategies head to head.

    A line overlay with answers at a few far nodes maximizes what a
    strategy can win: completion time per run, per strategy.  Expected:
    static never improves; maxcount/minhops drop sharply after run 1;
    random sits in between.
    """
    params = params if params is not None else FigureParams()
    topology = line(node_count)
    placement = AnswerPlacement(
        node_count=node_count, holder_count=holder_count, seed=params.seed
    )
    result = FigureResult(
        figure="Ablation A1",
        title="Reconfiguration strategy comparison",
        x_label="run",
        y_label="completion time (s)",
        notes=f"line of {node_count}; answers at {sorted(placement.holders)}",
    )
    for strategy in RECONFIG_STRATEGIES:
        runs = bestpeer_runs(
            topology,
            reconfigurable=strategy != "static",
            params=params,
            keyword=placement.keyword,
            placement=placement,
            strategy=strategy,
        )
        for run_index, run in enumerate(runs, start=1):
            result.add_point(strategy, run_index, completion_time(run))
    return result


def ablation_compression(
    params: FigureParams | None = None, node_count: int = 15
) -> FigureResult:
    """GZIP message compression on vs. off.

    The prototype gzips every agent and message.  Here every BestPeer
    message is a compact wire-codec frame, and the codec touches only
    pickle-fallback payloads, of which a BestPeer run sends none: the
    gzip and off series are equal on every run.  The ablation stays as
    the measurement of that (gzip's CPU cost is not charged either way,
    as the paper treats compression as transparent).
    """
    params = params if params is not None else FigureParams()
    topology = tree(node_count, branching=2)
    result = FigureResult(
        figure="Ablation A2",
        title="GZIP compression on vs off",
        x_label="run",
        y_label="completion time (s)",
        notes=f"tree of {node_count} nodes; BPR",
    )
    for label, codec in [("gzip", GzipCodec()), ("off", IdentityCodec())]:
        runs = bestpeer_runs(topology, True, params, codec=codec)
        for run_index, run in enumerate(runs, start=1):
            result.add_point(label, run_index, completion_time(run))
    return result


def ablation_ttl(
    params: FigureParams | None = None,
    node_count: int = 16,
    ttls: tuple[int, ...] = (2, 4, 8, 12, 16),
) -> FigureResult:
    """Agent TTL: answer coverage vs. completion time.

    On a line, TTL directly caps the reachable prefix: small TTLs answer
    fast but miss far nodes.  Series: responders reached, completion.
    """
    params = params if params is not None else FigureParams()
    topology = line(node_count)
    result = FigureResult(
        figure="Ablation A3",
        title="Agent TTL: coverage vs completion",
        x_label="ttl",
        y_label="responders / completion time (s)",
        notes=f"line of {node_count}; static peers; every node has answers",
    )
    for ttl in ttls:
        runs = bestpeer_runs(topology, False, params, ttl=ttl)
        last = runs[-1]
        result.add_point("responders", ttl, len({a.responder for a in last}))
        result.add_point("completion (s)", ttl, completion_time(last))
    return result


def ablation_result_mode(
    params: FigureParams | None = None, node_count: int = 15
) -> FigureResult:
    """Result mode 1 (direct answers) vs. mode 2 (metadata only).

    Mode 2 answers arrive sooner (no payloads on the wire); the cost is
    the later out-of-network fetch round trip per wanted object.
    """
    params = params if params is not None else FigureParams()
    topology = tree(node_count, branching=2)
    result = FigureResult(
        figure="Ablation A4",
        title="Result mode: direct answers vs metadata",
        x_label="run",
        y_label="completion time (s)",
        notes=f"tree of {node_count} nodes; BPS so runs are comparable",
    )
    for mode in ("direct", "metadata"):
        runs = bestpeer_runs(topology, False, params, result_mode=mode)
        for run_index, run in enumerate(runs, start=1):
            result.add_point(mode, run_index, completion_time(run))
    return result


def ablation_replication(
    params: FigureParams | None = None,
    node_count: int = 16,
    factors: tuple[int, ...] = (1, 2, 4, 8),
    distinct_objects: int = 5,
    placement_seeds: int = 5,
) -> FigureResult:
    """Replication factor vs. time-to-first-answer (paper future work).

    The paper ran with exactly one copy of every object; its future work
    asks how replication would help.  Sweep: each of
    ``distinct_objects`` objects is stored at ``factor`` random nodes of
    a 16-node *line* (so distance to the nearest replica matters), over
    several random placements.  Expected: the *first* answer arrives
    sooner as replicas multiply (some copy lands near the base), while
    completion does not improve — the farthest copy still answers last.
    """
    params = params if params is not None else FigureParams()
    topology = line(node_count)
    result = FigureResult(
        figure="Ablation A6",
        title="Replication factor vs response latency",
        x_label="replication factor",
        y_label="seconds",
        notes=(
            f"{distinct_objects} distinct objects on a line of {node_count}; "
            f"static peers; averaged over {placement_seeds} random placements"
        ),
    )
    for factor in factors:
        first_answers = []
        completions = []
        for seed_offset in range(placement_seeds):
            spec = ReplicationSpec(
                node_count=node_count,
                factor=factor,
                distinct_objects=distinct_objects,
                object_size=params.object_size,
                seed=params.seed + seed_offset,
            )
            runs = bestpeer_runs(
                topology, False, params, keyword=spec.keyword, placement=spec
            )
            last_run = runs[-1]  # classes cached: the steady-state run
            first_answers.append(min(arrival.time for arrival in last_run))
            completions.append(completion_time(last_run))
        result.add_point(
            "first answer (s)", factor, sum(first_answers) / len(first_answers)
        )
        result.add_point(
            "completion (s)", factor, sum(completions) / len(completions)
        )
    return result


def ablation_shipping(
    params: FigureParams | None = None,
    node_count: int = 4,
    query_count: int = 10,
    store_objects: int = 150,
) -> FigureResult:
    """Code- vs data-shipping over repeated queries (paper future work).

    A star of identical small stores queried repeatedly.
    ``always-code`` pays the agent round trip for every query;
    ``always-data`` pays one up-front mirror transfer per peer, then
    answers locally for near nothing; ``adaptive`` discovers the store
    sizes and — with its default ten-query amortization horizon —
    correctly picks the data side of the trade.  The series are
    *cumulative* elapsed simulated seconds after each query: the
    always-code line is straight, the data lines start higher and go
    flat, and they cross after a few queries — the amortization picture
    the paper's future-work optimizer is about.
    """
    params = params if params is not None else FigureParams()
    from repro.core.builder import build_network
    from repro.core.config import BestPeerConfig
    from repro.topology.builders import star

    result = FigureResult(
        figure="Ablation A7",
        title="Shipping policy amortization over repeated queries",
        x_label="queries issued",
        y_label="cumulative elapsed (s)",
        notes=(
            f"star of {node_count}; {store_objects} x "
            f"{params.object_size}B objects per peer"
        ),
    )
    corpus = KeywordCorpus(params.corpus_size)
    keyword = corpus.keyword(0)
    for policy in ("always-code", "always-data", "adaptive"):
        config = BestPeerConfig(
            shipping_policy=policy,
            agent_costs=params.costs,
            search_own_store=False,
            max_direct_peers=max(8, node_count),
        )
        deployment = build_network(node_count, config=config, topology=star(node_count))
        for index, node in enumerate(deployment.nodes[1:], start=1):
            node.share_many(
                [
                    (spec.keywords, spec.payload)
                    for spec in generate_objects(
                        index,
                        count=store_objects,
                        size=params.object_size,
                        corpus=corpus,
                        seed=params.seed,
                    )
                ]
            )
            if params.warm_buffers:
                node.storm.search_scan(keyword)
        if policy == "adaptive":
            # The optimizer needs store-size estimates: discover first.
            deployment.base.discover()
            deployment.sim.run()
        cumulative = 0.0
        for query_number in range(1, query_count + 1):
            start = deployment.sim.now
            handle = deployment.base.smart_query(keyword)
            deployment.sim.run()
            cumulative += (handle.last_arrival or start) - start
            result.add_point(policy, query_number, cumulative)
    return result


def ablation_buffer_strategy(
    strategies: tuple[str, ...] = ("lru", "mru", "fifo", "clock", "lru-k"),
    objects: int = 1000,
    object_size: int = 1024,
    pool_size: int = 128,
    scans: int = 4,
    costs: AgentCosts | None = None,
) -> FigureResult:
    """StorM replacement strategies under the agent's sequential scan.

    The agent's full scan is a sequential-flood access pattern: LRU
    caches the *front* of the file and loses it before re-use, while MRU
    keeps a stable prefix resident — the classic result the extensible-
    replacement design exists to exploit.  The y value is the simulated
    search service time derived from buffer misses.
    """
    costs = costs if costs is not None else AgentCosts()
    corpus = KeywordCorpus()
    result = FigureResult(
        figure="Ablation A5",
        title="StorM buffer replacement under repeated scans",
        x_label="scan",
        y_label="simulated search time (s)",
        notes=f"{objects} x {object_size}B objects; pool of {pool_size} frames",
    )
    for name in strategies:
        store = StorM(
            disk=InMemoryDisk(),
            pool_size=pool_size,
            strategy=make_strategy(name),
        )
        store.put_many(
            [
                (spec.keywords, spec.payload)
                for spec in generate_objects(
                    0, count=objects, size=object_size, corpus=corpus
                )
            ]
        )
        for scan in range(1, scans + 1):
            search = store.search_scan(corpus.keyword(0))
            service = (
                search.objects_examined * costs.object_match_time
                + search.io.physical_reads * costs.page_io_time
            )
            result.add_point(name, scan, service)
    return result
