"""Wire encodes per flood: one per hop depth, plus the answers.

Every host at one hop depth receives the same frame and shares its one
decoded envelope; that envelope keeps its next hop, so every relay at the
depth forwards the same object and the identity-keyed ``WireEncoder``
encodes it once.  Counted as encoder misses on the perf ledger's flood
workload at smoke scale (100 nodes, degree 4), after the ledger's warm-up
floods have shipped the agent class (first contacts carry source, one
envelope per host).
"""

from __future__ import annotations

from perfledger.scenarios import Flood1k
from repro import random_graph


def test_a_flood_encodes_once_per_hop_depth_plus_answers():
    workload = Flood1k(seed=1, smoke=True)
    workload.setup()
    network = workload.deployment.network
    nodes = len(workload.deployment.nodes)
    topology = random_graph(nodes, degree=4, seed=1)  # the workload's own graph
    depth, frontier, seen = 0, {0}, {0}
    while frontier:  # hop distance of the farthest node from the base
        frontier = {n for f in frontier for n in topology.neighbors(f)} - seen
        seen |= frontier
        depth += bool(frontier)
    for index in range(workload.warmups):
        # as in the ledger: a host's first send to each peer carries source
        workload.warmup(index, harness=None)
    for index in range(3):
        misses, delivered = network.encoder.misses, network.packets_delivered
        outcome = workload.op(index, harness=None)
        answers = len(outcome.observed)
        assert outcome.failed == 0 and answers == 2
        assert network.packets_delivered - delivered > 2 * nodes
        # One envelope per hop depth, one message per answer, and one more
        # when a full decode memo is cleared mid-flood (the memos are
        # process-wide, so where that falls depends on earlier tests).
        assert network.encoder.misses - misses <= depth + answers + 1
