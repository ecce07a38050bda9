"""Property: clone results are independent of install-cache state.

The paper's result-return invariant: a flooded agent's clones send
their answers *out-of-network*, straight back to the initiator, so what
the initiator collects depends only on the overlay and the data — never
on whether a host's class install was a fresh compile or a process-wide
compile-cache rebind.  Seeded random topologies under both MaxCount and
MinHops reconfiguration must produce bit-identical answers (responders,
hop counts, answer counts), reconfigured peer sets, and wire bytes with
the caches cold or warm.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.agents import codeship
from repro.core.builder import build_network
from repro.core.config import BestPeerConfig
from repro.topology.builders import random_graph


def _run_flood(nodes: int, degree: int, seed: int, strategy: str):
    """One seeded flood query; returns everything the initiator observes."""
    # ``degree`` is the overlay's *average* degree; individual nodes may
    # exceed it, so the peer table must hold a worst-case fan-in.
    deployment = build_network(
        nodes,
        config=BestPeerConfig(max_direct_peers=nodes - 1, strategy=strategy),
        topology=random_graph(nodes, degree, seed=seed),
    )
    rng = random.Random(seed)
    holders = rng.sample(range(1, nodes), k=min(2, nodes - 1))
    for holder in holders:
        count = 1 + rng.randrange(3)
        for index in range(count):
            deployment.nodes[holder].share(["needle"], bytes([holder, index]) * 8)
    handle = deployment.base.issue_query("needle")
    deployment.sim.run()
    answers = sorted(
        (str(answer.responder), answer.hops, answer.answer_count)
        for answer in handle.answers
    )
    deployment.base.finish_query(handle)
    reconfigured_peers = sorted(str(b) for b in deployment.base.peers.bpids())
    return (
        answers,
        reconfigured_peers,
        deployment.network.bytes_carried,
        deployment.sim.now,
    )


@settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    seed=st.integers(min_value=0, max_value=9999),
    nodes=st.integers(min_value=4, max_value=8),
    degree=st.integers(min_value=2, max_value=3),
    strategy=st.sampled_from(["maxcount", "minhops"]),
)
def test_clone_results_independent_of_install_cache_state(
    seed, nodes, degree, strategy
):
    codeship.clear_caches()
    cold = _run_flood(nodes, degree, seed, strategy)
    # Second run: the compile/source caches are now warm.
    warm = _run_flood(nodes, degree, seed, strategy)
    assert cold == warm
