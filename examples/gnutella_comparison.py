"""A miniature of the paper's Section 4.6: BestPeer vs Gnutella.

Builds the two systems on Figure 8(a)'s 32-node overlay with the same
shared files (answers restricted to three nodes), at 200 objects per
node instead of the paper's 1000, issues the same query four times
against each, and prints the per-run completion times — the shape
of Figure 8(a): Gnutella flat, BestPeer dropping sharply after run 1 —
then judges it with the Figure 8(a) claims ``repro verify`` checks.

Run:  python examples/gnutella_comparison.py
(For the full paper-scale experiment use ``python -m repro figure 8a``.)
"""

from repro.eval.claims import verify_figure
from repro.eval.figures import FigureParams, figure_8a
from repro.eval.report import format_figure


def main() -> None:
    params = FigureParams(objects_per_node=200, corpus_size=20, queries=4)
    result = figure_8a(params)
    print(format_figure(result))
    bp = result.y_values("BP")
    print(
        f"\nBestPeer run-1 vs steady-state: {bp[0]:.4f}s -> {bp[-1]:.4f}s "
        f"({bp[0] / bp[-1]:.2f}x faster after reconfiguration)"
    )
    for claim, holds in verify_figure("8a", result):
        print(f"[{'PASS' if holds else 'FAIL'}] {claim.quote}")


if __name__ == "__main__":
    main()
