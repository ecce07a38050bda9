"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro list
    python -m repro figure 5a            # published configuration
    python -m repro figure 8a --objects 200 --queries 4
    python -m repro ablation strategy
    python -m repro verify               # every figure and ablation + claims
    python -m repro demo

With no scale arguments, ``figure`` and ``ablation`` run the published
configuration EXPERIMENTS.md reports, and ``verify`` runs all of them,
prints every table and checks every claim of ``repro.eval.claims``;
``--objects``/``--queries`` scale the workload down for quick looks.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple, Sequence

from repro.errors import BestPeerError, ExperimentError
from repro.eval import ablations, churn, figures, replication, routing, topk
from repro.eval.experiment import FigureResult
from repro.eval.figures import FigureParams
from repro.eval.report import format_figure, format_trials


class Figure(NamedTuple):
    """One ``repro figure`` entry: the figure function and, for figures
    that report more than their series, the per-trial table printed
    under it (heading + ``report.format_trials`` columns)."""

    run: Callable[[FigureParams], FigureResult]
    heading: str = ""
    columns: tuple = ()


FIGURES: dict[str, Figure] = {
    "5a": Figure(figures.figure_5a),
    "5b": Figure(figures.figure_5b),
    "5c": Figure(figures.figure_5c),
    "6": Figure(figures.figure_6),
    "7": Figure(figures.figure_7),
    "8a": Figure(figures.figure_8a),
    "8b": Figure(figures.figure_8b),
    "churn": Figure(
        churn.figure_churn, "per-trial degradation detail:", churn.TRIAL_COLUMNS
    ),
    "replication": Figure(
        replication.figure_replication,
        "per-(scheme, rate) resilience/overhead detail:",
        replication.TRIAL_COLUMNS,
    ),
    "routing": Figure(
        routing.figure_routing,
        "per-strategy recall/traffic detail:",
        routing.TRIAL_COLUMNS,
    ),
    "topk": Figure(
        topk.figure_topk,
        "per-(k, ttl, rate) traffic/quality detail:",
        topk.TRIAL_COLUMNS,
    ),
}

#: In DESIGN.md's order, A1 and A3 to A7 (there is no A2).
ABLATIONS: dict[str, Callable[[FigureParams], FigureResult]] = {
    "strategy": ablations.ablation_strategy,
    "ttl": ablations.ablation_ttl,
    "result-mode": ablations.ablation_result_mode,
    "buffer": ablations.ablation_buffer_strategy,
    "replication": ablations.ablation_replication,
    "shipping": ablations.ablation_shipping,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BestPeer (ICDE 2002) reproduction - experiment runner",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list available figures and ablations")

    figure = commands.add_parser("figure", help="reproduce one paper figure")
    figure.add_argument("name", choices=sorted(FIGURES))
    _add_scale_arguments(figure)

    ablation = commands.add_parser("ablation", help="run one ablation study")
    ablation.add_argument("name", choices=sorted(ABLATIONS))
    _add_scale_arguments(ablation)

    verify = commands.add_parser(
        "verify", help="run every figure and ablation and check every claim"
    )
    _add_scale_arguments(verify)

    commands.add_parser("demo", help="run a small end-to-end demonstration")
    return parser


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--objects",
        type=int,
        default=1000,
        help="objects per node (paper: 1000)",
    )
    parser.add_argument(
        "--queries", type=int, default=4, help="query repetitions (paper: 4)"
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument(
        "--plot",
        action="store_true",
        help="also render an ASCII chart of the series",
    )


def _params(args: argparse.Namespace) -> FigureParams:
    return FigureParams(
        objects_per_node=args.objects, queries=args.queries, seed=args.seed
    )


def _run_list() -> int:
    print("figures:   " + "  ".join(sorted(FIGURES)))
    print("ablations: " + "  ".join(sorted(ABLATIONS)))
    return 0


def _run_figure(args: argparse.Namespace) -> int:
    figure = FIGURES[args.name]
    result = figure.run(_params(args))
    _emit(result, args)
    if figure.columns:
        print()
        print(figure.heading)
        print(format_trials(result.trials, figure.columns))
    return 0


def _run_ablation(args: argparse.Namespace) -> int:
    result = ABLATIONS[args.name](_params(args))
    _emit(result, args)
    return 0


def _emit(result: FigureResult, args: argparse.Namespace) -> None:
    print(format_figure(result))
    if args.plot:
        from repro.eval.plot import render_ascii_plot

        print()
        print(render_ascii_plot(result))


def _run_verify(args: argparse.Namespace) -> int:
    from repro.eval.claims import verify_all

    params = _params(args)
    results = {key: figure.run(params) for key, figure in FIGURES.items()}
    for name, ablation in ABLATIONS.items():
        results[f"ablation {name}"] = ablation(params)
    for result in results.values():
        print(format_figure(result))
        print()
    report, held = verify_all(results)
    print(report)
    return 0 if held else 1


def _run_demo() -> int:
    from repro import BestPeerConfig, build_network, line
    from repro.replication import ReplicationPolicy

    net = build_network(
        6,
        config=BestPeerConfig(
            max_direct_peers=3,
            strategy="maxcount",
            replication=ReplicationPolicy(rf=2, hot_rf=3, cache_capacity=8),
        ),
        topology=line(6),
    )
    net.nodes[4].share(["demo"], b"found at the far end")
    net.nodes[5].share(["demo"], b"and even farther")
    first = net.base.issue_query("demo")
    net.sim.run()
    print(
        f"query 1: {first.network_answer_count} answers in "
        f"{first.completion_time:.4f}s (simulated)"
    )
    net.base.finish_query(first)
    second = net.base.issue_query("demo")
    net.sim.run()
    if second.served_from_cache:
        print(
            f"query 2: {second.network_answer_count} answers replayed "
            "from the invalidation-coherent result cache (no network)"
        )
        print("speedup: inf (cache hit)")
    else:
        print(
            f"query 2: {second.network_answer_count} answers in "
            f"{second.completion_time:.4f}s after reconfiguration"
        )
        print(f"speedup: {first.completion_time / second.completion_time:.2f}x")
    from repro.eval.report import format_degradation_stats, format_network_stats

    print()
    print("graceful-degradation counters:")
    print(format_degradation_stats(net.nodes))
    print()
    print("network/wire counters (control vs data plane):")
    print(format_network_stats(net.network))
    from repro.eval.report import format_replication_stats

    print()
    print("replication/cache counters (rf=2, hot_rf=3, cache=8):")
    print(format_replication_stats(net.nodes))
    net.base.finish_query(second)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _run_list()
        if args.command == "figure":
            return _run_figure(args)
        if args.command == "ablation":
            return _run_ablation(args)
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "demo":
            return _run_demo()
    except (ExperimentError, BestPeerError) as error:
        # Bad --queries / --objects (ExperimentError) or a deployment
        # build_network rejects (BestPeerError): the user's to fix, no
        # traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")
