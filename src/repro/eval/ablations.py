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
from repro.workloads.corpus import KeywordCorpus, generate_objects
from repro.workloads.placement import AnswerPlacement
from repro.workloads.replication import ReplicationSpec

#: A1, A3 and A6 run on a line of this many nodes.
LINE_NODES = 16
#: A1: strategies compared, and the far nodes that hold the answers.
RECONFIG_STRATEGIES = ("maxcount", "minhops", "random", "static")
STRATEGY_HOLDERS = 3
#: A3: agent TTLs swept.
TTLS = (2, 4, 8, 12, 16)
#: A4: nodes of the binary tree.
RESULT_MODE_NODES = 15
#: A5: replacement strategies, buffer frames and repeated scans.
BUFFER_STRATEGIES = ("lru", "mru", "fifo", "clock", "lru-k")
BUFFER_POOL_SIZE = 128
BUFFER_SCANS = 4
#: A6: replication factors swept, distinct objects placed, and random
#: placements averaged per factor.
REPLICATION_FACTORS = (1, 2, 4, 8)
DISTINCT_OBJECTS = 5
PLACEMENT_SEEDS = 5
#: A7: star size, queries issued and objects per peer store.
SHIPPING_NODES = 4
SHIPPING_QUERIES = 10
SHIPPING_OBJECTS = 150


def ablation_strategy(params: FigureParams) -> FigureResult:
    """Reconfiguration strategies head to head.

    A line overlay with answers at a few far nodes maximizes what a
    strategy can win: completion time per run, per strategy.  Expected:
    static never improves; maxcount/minhops drop sharply after run 1;
    random sits in between.
    """
    topology = line(LINE_NODES)
    placement = AnswerPlacement(
        node_count=LINE_NODES, holder_count=STRATEGY_HOLDERS, seed=params.seed
    )
    result = FigureResult(
        figure="Ablation A1",
        title="Reconfiguration strategy comparison",
        x_label="run",
        y_label="completion time (s)",
        notes=f"line of {LINE_NODES}; answers at {sorted(placement.holders)}",
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


def ablation_ttl(params: FigureParams) -> FigureResult:
    """Agent TTL: answer coverage vs. completion time.

    On a line, TTL directly caps the reachable prefix: small TTLs answer
    fast but miss far nodes.  Series: responders reached, completion.
    """
    topology = line(LINE_NODES)
    result = FigureResult(
        figure="Ablation A3",
        title="Agent TTL: coverage vs completion",
        x_label="ttl",
        y_label="responders / completion time (s)",
        notes=f"line of {LINE_NODES}; static peers; every node has answers",
    )
    for ttl in TTLS:
        runs = bestpeer_runs(topology, False, params, ttl=ttl)
        last = runs[-1]
        result.add_point("responders", ttl, len({a.responder for a in last}))
        result.add_point("completion (s)", ttl, completion_time(last))
    return result


def ablation_result_mode(params: FigureParams) -> FigureResult:
    """Result mode 1 (direct answers) vs. mode 2 (metadata only).

    Mode 2 answers arrive sooner (no payloads on the wire); the cost is
    the later out-of-network fetch round trip per wanted object.
    """
    topology = tree(RESULT_MODE_NODES, branching=2)
    result = FigureResult(
        figure="Ablation A4",
        title="Result mode: direct answers vs metadata",
        x_label="run",
        y_label="completion time (s)",
        notes=f"tree of {RESULT_MODE_NODES} nodes; BPS so runs are comparable",
    )
    for mode in ("direct", "metadata"):
        runs = bestpeer_runs(topology, False, params, result_mode=mode)
        for run_index, run in enumerate(runs, start=1):
            result.add_point(mode, run_index, completion_time(run))
    return result


def ablation_replication(params: FigureParams) -> FigureResult:
    """Replication factor vs. time-to-first-answer (paper future work).

    The paper ran with exactly one copy of every object; its future work
    asks how replication would help.  Sweep: each of
    :data:`DISTINCT_OBJECTS` objects is stored at ``factor`` random nodes
    of a 16-node *line* (so distance to the nearest replica matters), over
    several random placements.  Expected: the *first* answer arrives
    sooner as replicas multiply (some copy lands near the base), while
    completion does not improve — the farthest copy still answers last.
    """
    topology = line(LINE_NODES)
    result = FigureResult(
        figure="Ablation A6",
        title="Replication factor vs response latency",
        x_label="replication factor",
        y_label="seconds",
        notes=(
            f"{DISTINCT_OBJECTS} distinct objects on a line of {LINE_NODES}; "
            f"static peers; averaged over {PLACEMENT_SEEDS} random placements"
        ),
    )
    for factor in REPLICATION_FACTORS:
        first_answers = []
        completions = []
        for seed_offset in range(PLACEMENT_SEEDS):
            spec = ReplicationSpec(
                node_count=LINE_NODES,
                factor=factor,
                distinct_objects=DISTINCT_OBJECTS,
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


def ablation_shipping(params: FigureParams) -> FigureResult:
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
    from repro.core.builder import build_network
    from repro.core.config import BestPeerConfig
    from repro.topology.builders import star

    result = FigureResult(
        figure="Ablation A7",
        title="Shipping policy amortization over repeated queries",
        x_label="queries issued",
        y_label="cumulative elapsed (s)",
        notes=(
            f"star of {SHIPPING_NODES}; {SHIPPING_OBJECTS} x "
            f"{params.object_size}B objects per peer"
        ),
    )
    corpus = KeywordCorpus(params.corpus_size)
    keyword = corpus.keyword(0)
    for policy in ("always-code", "always-data", "adaptive"):
        config = BestPeerConfig(
            shipping_policy=policy,
            search_own_store=False,
            max_direct_peers=max(8, SHIPPING_NODES),
        )
        deployment = build_network(
            SHIPPING_NODES, config=config, topology=star(SHIPPING_NODES)
        )
        for index, node in enumerate(deployment.nodes[1:], start=1):
            node.share_many(
                [
                    (spec.keywords, spec.payload)
                    for spec in generate_objects(
                        index,
                        count=SHIPPING_OBJECTS,
                        size=params.object_size,
                        corpus=corpus,
                        seed=params.seed,
                    )
                ]
            )
            # a warm-up scan, so cold-cache page I/O does not drown the policies
            node.storm.search_scan(keyword)
        if policy == "adaptive":
            # The optimizer needs store-size estimates: discover first.
            deployment.base.discover()
            deployment.sim.run()
        cumulative = 0.0
        for query_number in range(1, SHIPPING_QUERIES + 1):
            start = deployment.sim.now
            handle = deployment.base.smart_query(keyword)
            deployment.sim.run()
            cumulative += (handle.last_arrival or start) - start
            result.add_point(policy, query_number, cumulative)
    return result


def ablation_buffer_strategy(params: FigureParams) -> FigureResult:
    """StorM replacement strategies under the agent's sequential scan.

    The agent's full scan is a sequential-flood access pattern: LRU
    caches the *front* of the file and loses it before re-use, while MRU
    keeps a stable prefix resident — the classic result the extensible-
    replacement design exists to exploit.  The y value is the simulated
    search service time derived from buffer misses.  It reads only the
    store load (``objects_per_node`` x ``object_size``) from ``params``:
    the corpus and object seed are fixed, so the result is the same at
    every ``--seed``.
    """
    corpus, costs = KeywordCorpus(), AgentCosts()
    result = FigureResult(
        figure="Ablation A5",
        title="StorM buffer replacement under repeated scans",
        x_label="scan",
        y_label="simulated search time (s)",
        notes=(
            f"{params.objects_per_node} x {params.object_size}B objects; "
            f"pool of {BUFFER_POOL_SIZE} frames"
        ),
    )
    for name in BUFFER_STRATEGIES:
        store = StorM(
            disk=InMemoryDisk(),
            pool_size=BUFFER_POOL_SIZE,
            strategy=make_strategy(name),
        )
        store.put_many(
            [
                (spec.keywords, spec.payload)
                for spec in generate_objects(
                    0,
                    count=params.objects_per_node,
                    size=params.object_size,
                    corpus=corpus,
                )
            ]
        )
        for scan in range(1, BUFFER_SCANS + 1):
            search = store.search_scan(corpus.keyword(0))
            service = (
                search.objects_examined * costs.object_match_time
                + search.io.physical_reads * costs.page_io_time
            )
            result.add_point(name, scan, service)
    return result
