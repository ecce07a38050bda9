"""A miniature of the paper's Section 4.6: BestPeer vs Gnutella.

Builds the two systems on the same 16-node overlay with the same shared
files (answers restricted to three nodes), issues the same query four
times against each, and prints the per-run completion times — the shape
of Figure 8(a): Gnutella flat, BestPeer dropping sharply after run 1.

Run:  python examples/gnutella_comparison.py
(For the full paper-scale experiment use ``python -m repro figure 8a``.)
"""

from repro.eval.figures import FigureParams, figure_8a
from repro.eval.report import format_figure


def main() -> None:
    params = FigureParams(objects_per_node=200, corpus_size=20, queries=4)
    result = figure_8a(params, node_count=16, max_peers=8, holder_count=3)
    print(format_figure(result))
    bp = result.y_values("BP")
    print(
        f"\nBestPeer run-1 vs steady-state: {bp[0]:.4f}s -> {bp[-1]:.4f}s "
        f"({bp[0] / bp[-1]:.2f}x faster after reconfiguration)"
    )


if __name__ == "__main__":
    main()
