"""One experiment definition per figure of the paper's Section 4.

Every public ``figure_*`` function builds the systems from scratch,
drives the workload, and returns a :class:`FigureResult` whose series
mirror the corresponding figure:

========  ==========================================================
figure    content
========  ==========================================================
``5(a)``  Star topology: completion time vs. network size
          (SCS / MCS / BPS / BPR)
``5(b)``  Tree topology: completion time vs. tree level (CS/BPS/BPR)
``5(c)``  Line topology: completion time vs. network size
``6``     rate at which answers return: (K responders, T) curves
``7``     cumulative answers vs. time
``8(a)``  BP vs. Gnutella: completion per repeated run of one query
``8(b)``  BP vs. Gnutella: completion vs. number of direct peers
========  ==========================================================

Absolute times are simulator outputs under the documented cost model,
not the authors' Pentium-II milliseconds; the *shapes* are the
reproduction target (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.agents.costs import AgentCosts
from repro.baselines.client_server import (
    VARIANT_MCS,
    VARIANT_SCS,
    build_cs_network,
)
from repro.baselines.gnutella import build_gnutella_network
from repro.core.builder import build_network
from repro.core.config import BestPeerConfig
from repro.errors import ExperimentError
from repro.eval.experiment import FigureResult
from repro.eval.metrics import (
    Arrival,
    answer_curve,
    average_answer_curves,
    average_curves,
    completion_time,
    response_curve,
)
from repro.eval.sweep import run_tasks
from repro.topology.builders import Topology, line, random_graph, star, tree
from repro.workloads.corpus import KeywordCorpus
from repro.workloads.placement import AnswerPlacement
from repro.workloads.provision import provision_store

#: Scheme labels as the paper uses them.
SCHEME_SCS = "SCS"
SCHEME_MCS = "CS"  # after Fig 5(a) the paper calls MCS simply "CS"
SCHEME_BPS = "BPS"
SCHEME_BPR = "BPR"

#: Figure 5(a): star sizes, up to the paper's 32 nodes.
STAR_SIZES = (1, 2, 4, 8, 16, 24, 32)
#: Figure 5(b): binary-tree levels (see :func:`tree_size_for_level`).
TREE_LEVELS = (1, 2, 3, 4, 5)
#: Figure 5(c): line lengths.
LINE_SIZES = (2, 4, 8, 16, 24, 32)
#: Figures 6 and 7: nodes of the one binary tree both figures read.
TREE_NODES = 32
#: Figure 8: overlay size, the nodes that hold answers, and how many
#: answers each holds.
FIG8_NODES = 32
FIG8_HOLDERS = 3
FIG8_ANSWERS_PER_HOLDER = 5
#: Figure 8(a): "up to 8 directly connected peers".
FIG8A_PEERS = 8
#: Figure 8(b): the direct-peer counts swept.
FIG8B_PEER_COUNTS = (2, 4, 6, 8)


@dataclass(frozen=True)
class FigureParams:
    """The one argument of every ``figure_*`` and ``ablation_*`` function.

    Each experiment's shape (topology, node counts, sweep axes) is a
    module constant beside its function; these fields are the workload
    (paper-faithful defaults), the seed and the cost model.  Scale down
    ``objects_per_node`` and ``queries`` for quick smoke runs.
    """

    #: "each node stores 1000 objects in StorM"
    objects_per_node: int = 1000
    #: "all objects to be of the same size - 1K bytes"
    object_size: int = 1024
    #: distinct keywords in the synthetic vocabulary
    corpus_size: int = 100
    #: "A search query is issued four times"
    queries: int = 4
    seed: int = 0
    #: the reconfigurable base node's peer cap ("up to 8 directly
    #: connected peers" in the Gnutella comparison)
    k_base: int = 8
    #: scan every store once before measuring, so cold-cache page I/O
    #: (identical across schemes) does not drown the protocol effects
    warm_buffers: bool = True
    costs: AgentCosts = field(default_factory=AgentCosts)

    def __post_init__(self) -> None:
        if self.objects_per_node < 0:
            raise ExperimentError("objects_per_node must be >= 0")
        if self.queries < 1:
            raise ExperimentError("queries must be >= 1")


def _query_keyword(params: FigureParams) -> str:
    """The keyword every node holds matches for (topology experiments)."""
    return KeywordCorpus(params.corpus_size).keyword(0)


# ---------------------------------------------------------------------------
# Trial runners: one query workload against one built system
# ---------------------------------------------------------------------------


def bestpeer_runs(
    topology: Topology,
    reconfigurable: bool,
    params: FigureParams,
    keyword: str | None = None,
    placement: AnswerPlacement | None = None,
    strategy: str | None = None,
    result_mode: str = "direct",
    ttl: int | None = None,
) -> list[list[Arrival]]:
    """Run ``params.queries`` repeated queries on a BestPeer deployment.

    Returns per-run arrival lists (times relative to each query issue).
    ``reconfigurable`` selects BPR (MaxCount unless ``strategy`` says
    otherwise) vs. BPS (static peers).
    """
    chosen_strategy = strategy or ("maxcount" if reconfigurable else "static")
    ttl = ttl if ttl is not None else max(7, topology.node_count)
    configs = [
        BestPeerConfig(
            max_direct_peers=max(topology.degree(i), params.k_base),
            ttl=ttl,
            strategy=chosen_strategy,
            agent_costs=params.costs,
            search_own_store=False,
            result_mode=result_mode,
        )
        for i in range(topology.node_count)
    ]
    deployment = build_network(
        topology.node_count,
        config=configs,
        topology=topology,
        storm_factory=_store_factory(params, placement),
    )
    keyword = keyword if keyword is not None else _query_keyword(params)
    runs: list[list[Arrival]] = []
    for _ in range(params.queries):
        handle = deployment.base.issue_query(keyword)
        deployment.sim.run()
        runs.append(
            [
                Arrival(t - handle.issued_at, str(a.responder), a.answer_count)
                for t, a in handle.arrivals()
            ]
        )
        deployment.base.finish_query(handle)
    return runs


def _cs_runs(
    topology: Topology,
    variant: str,
    params: FigureParams,
    keyword: str | None = None,
    placement: AnswerPlacement | None = None,
) -> list[list[Arrival]]:
    """Run repeated queries against an SCS/MCS deployment."""
    deployment = build_cs_network(
        topology,
        variant,
        costs=params.costs,
        storm_factory=_store_factory(params, placement),
    )
    keyword = keyword if keyword is not None else _query_keyword(params)
    runs = []
    for _ in range(params.queries):
        handle = deployment.base.issue_query(keyword, search_own_store=False)
        deployment.sim.run()
        runs.append(
            [
                Arrival(t - handle.issued_at, responder, count)
                for t, responder, count in handle.arrivals
            ]
        )
    return runs


def _gnutella_runs(
    topology: Topology,
    params: FigureParams,
    keyword: str,
    placement: AnswerPlacement | None = None,
) -> list[list[Arrival]]:
    """Run repeated queries against a Gnutella deployment."""
    deployment = build_gnutella_network(
        topology,
        costs=params.costs,
        storm_factory=_store_factory(params, placement),
    )
    runs = []
    for _ in range(params.queries):
        handle = deployment.base.issue_query(keyword, ttl=max(7, topology.node_count))
        deployment.sim.run()
        runs.append(
            [
                Arrival(t - handle.issued_at, responder, count)
                for t, responder, count in handle.arrivals
            ]
        )
    return runs


def _store_factory(params: FigureParams, placement: AnswerPlacement | None):
    """Per-node store provisioning for one deployment.

    Routes every experiment's store population through
    :func:`~repro.workloads.provision.provision_store`, which bulk-loads
    the corpus and clones repeated (corpus, node, size) combinations
    from a template instead of re-inserting every object.  Templates
    live as long as the process, so a later sweep point or figure over
    the same stores clones them.
    """
    corpus = KeywordCorpus(params.corpus_size)

    def factory(index: int):
        return provision_store(
            index,
            count=params.objects_per_node,
            size=params.object_size,
            corpus=corpus,
            seed=params.seed,
            placement=placement,
            warm=params.warm_buffers,
        )

    return factory


def _mean_completion(runs: list[list[Arrival]]) -> float:
    return sum(completion_time(run) for run in runs) / len(runs)


def _topology_for(kind: str, x: int) -> Topology:
    if kind == "star":
        return star(x)
    if kind == "tree":
        return tree(tree_size_for_level(x), branching=2)
    if kind == "line":
        return line(x)
    raise ExperimentError(f"unknown topology kind {kind!r}")


def _scheme_completion(task: tuple[str, int, str, "FigureParams"]) -> float:
    """One Figure-5 sweep point: mean completion of one scheme at one x."""
    kind, x, scheme, params = task
    topology = _topology_for(kind, x)
    if scheme == SCHEME_SCS:
        runs = _cs_runs(topology, VARIANT_SCS, params)
    elif scheme == SCHEME_MCS:
        runs = _cs_runs(topology, VARIANT_MCS, params)
    elif scheme == SCHEME_BPS:
        runs = bestpeer_runs(topology, False, params)
    elif scheme == SCHEME_BPR:
        runs = bestpeer_runs(topology, True, params)
    else:
        raise ExperimentError(f"unknown scheme {scheme!r}")
    return _mean_completion(runs)


def _figure_67_runs(scheme: str, params: "FigureParams") -> list[list[Arrival]]:
    """All runs for one scheme of the shared Figure 6/7 experiment."""
    topology = tree(TREE_NODES, branching=2)
    if scheme == SCHEME_MCS:
        return _cs_runs(topology, VARIANT_MCS, params)
    if scheme == SCHEME_BPS:
        return bestpeer_runs(topology, False, params)
    if scheme == SCHEME_BPR:
        return bestpeer_runs(topology, True, params)
    raise ExperimentError(f"unknown scheme {scheme!r}")


def _figure_8_runs(
    system: str, peers: int, degree: int, params: "FigureParams"
) -> list[list[Arrival]]:
    """All runs for one system (BP or Gnutella) of a Figure-8 point."""
    topology = random_graph(FIG8_NODES, degree=degree, seed=params.seed)
    placement = AnswerPlacement(
        node_count=FIG8_NODES,
        holder_count=FIG8_HOLDERS,
        answers_per_holder=FIG8_ANSWERS_PER_HOLDER,
        seed=params.seed,
    )
    if system == "BP":
        return bestpeer_runs(
            topology,
            True,
            replace(params, k_base=peers),
            keyword=placement.keyword,
            placement=placement,
            result_mode="metadata",
        )
    if system == "Gnutella":
        return _gnutella_runs(
            topology, params, keyword=placement.keyword, placement=placement
        )
    raise ExperimentError(f"unknown system {system!r}")


# ---------------------------------------------------------------------------
# Figure 5: completion time on Star / Tree / Line topologies
# ---------------------------------------------------------------------------


def figure_5a(
    params: FigureParams,
    sizes: tuple[int, ...] = STAR_SIZES,
    runner=None,
) -> FigureResult:
    """Star topology: completion time vs. network size, all four schemes.

    ``sizes`` and ``runner`` are the perf ledger's seam: it times one
    star size per call, and ``runner`` is ``None`` or an object with
    ``map_tasks(func, tasks)`` that runs the (size, scheme) points in
    order (see :func:`~repro.eval.sweep.run_tasks`).
    """
    result = FigureResult(
        figure="Figure 5(a)",
        title="Star topology",
        x_label="nodes",
        y_label="completion time (s)",
        notes="SCS serializes its conversations; MCS/BPS/BPR are parallel.",
    )
    schemes = (SCHEME_SCS, SCHEME_MCS, SCHEME_BPS, SCHEME_BPR)
    tasks = [("star", size, scheme, params) for size in sizes for scheme in schemes]
    for task, y in zip(tasks, run_tasks(runner, _scheme_completion, tasks)):
        result.add_point(task[2], task[1], y)
    return result


def tree_size_for_level(level: int) -> int:
    """Binary-tree node count per paper level; level 5 uses 48 nodes."""
    if level < 1:
        raise ExperimentError(f"tree level must be >= 1, got {level}")
    full = 2 ** (level + 1) - 1
    return min(full, 48)  # "we used only 48 nodes instead of 63 for level 5"


def figure_5b(params: FigureParams) -> FigureResult:
    """Tree topology: completion time vs. tree level (CS / BPS / BPR)."""
    result = FigureResult(
        figure="Figure 5(b)",
        title="Tree topology",
        x_label="level",
        y_label="completion time (s)",
        notes="CS relays results along the path; BPS/BPR answer directly.",
    )
    schemes = (SCHEME_MCS, SCHEME_BPS, SCHEME_BPR)
    tasks = [
        ("tree", level, scheme, params) for level in TREE_LEVELS for scheme in schemes
    ]
    for task in tasks:
        result.add_point(task[2], task[1], _scheme_completion(task))
    return result


def figure_5c(params: FigureParams) -> FigureResult:
    """Line topology: completion time vs. network size (CS / BPS / BPR)."""
    result = FigureResult(
        figure="Figure 5(c)",
        title="Line topology",
        x_label="nodes",
        y_label="completion time (s)",
        notes="The base is the left-most node of the chain.",
    )
    schemes = (SCHEME_MCS, SCHEME_BPS, SCHEME_BPR)
    tasks = [
        ("line", size, scheme, params) for size in LINE_SIZES for scheme in schemes
    ]
    for task in tasks:
        result.add_point(task[2], task[1], _scheme_completion(task))
    return result


# ---------------------------------------------------------------------------
# Figures 6 and 7: response rate and answer quantity (32-node tree)
# ---------------------------------------------------------------------------


def figures_6_and_7(params: FigureParams) -> tuple[FigureResult, FigureResult]:
    """Both figures share the same runs: 32 nodes, tree, query issued
    ``params.queries`` times, per-responder averages across runs."""
    rate = FigureResult(
        figure="Figure 6",
        title="Rate at which answers are returned",
        x_label="nodes responded (K)",
        y_label="time (s)",
        notes=f"{TREE_NODES}-node tree; averaged over {params.queries} runs.",
    )
    quantity = FigureResult(
        figure="Figure 7",
        title="Number of answers returned over time",
        x_label="time (s)",
        y_label="cumulative answers",
        notes=f"{TREE_NODES}-node tree; averaged over {params.queries} runs.",
    )
    schemes = (SCHEME_MCS, SCHEME_BPS, SCHEME_BPR)
    for scheme in schemes:
        runs = _figure_67_runs(scheme, params)
        averaged_rate = average_curves([response_curve(run) for run in runs])
        for rank, when in averaged_rate:
            rate.add_point(scheme, rank, when)
        averaged_quantity = average_answer_curves([answer_curve(run) for run in runs])
        for when, count in averaged_quantity:
            quantity.add_point(scheme, when, count)
    return rate, quantity


def figure_6(params: FigureParams) -> FigureResult:
    """Figure 6 alone (runs the shared 6/7 experiment)."""
    return figures_6_and_7(params)[0]


def figure_7(params: FigureParams) -> FigureResult:
    """Figure 7 alone (runs the shared 6/7 experiment)."""
    return figures_6_and_7(params)[1]


# ---------------------------------------------------------------------------
# Figure 8: BestPeer vs Gnutella
# ---------------------------------------------------------------------------


def figure_8a(params: FigureParams) -> FigureResult:
    """BP vs. Gnutella: completion time per run of the same query.

    Answers are restricted to :data:`FIG8_HOLDERS` nodes; the overlay is
    a random graph where each node has up to :data:`FIG8A_PEERS` direct
    peers.
    """
    result = FigureResult(
        figure="Figure 8(a)",
        title="BestPeer vs Gnutella across repeated runs",
        x_label="run",
        y_label="completion time (s)",
        notes=(
            f"answers held by {FIG8_HOLDERS} of {FIG8_NODES} nodes; "
            f"up to {FIG8A_PEERS} direct peers"
        ),
    )
    # "while BP and Gnutella return results out-of-network, this feature
    # is not used in the experiment": BP ships match lists, not files.
    degree = max(2, FIG8A_PEERS // 2)
    for system in ("BP", "Gnutella"):
        runs = _figure_8_runs(system, FIG8A_PEERS, degree, params)
        for run_index, run in enumerate(runs, start=1):
            result.add_point(system, run_index, completion_time(run))
    return result


def figure_8b(params: FigureParams) -> FigureResult:
    """BP vs. Gnutella: completion (avg over runs) vs. number of peers."""
    result = FigureResult(
        figure="Figure 8(b)",
        title="Effect of the number of directly connected peers",
        x_label="direct peers",
        y_label="completion time (s)",
        notes=f"averaged over {params.queries} runs of one query",
    )
    for peers in FIG8B_PEER_COUNTS:
        degree = max(1, peers // 2)
        for system in ("BP", "Gnutella"):
            runs = _figure_8_runs(system, peers, degree, params)
            result.add_point(system, peers, _mean_completion(runs))
    return result
