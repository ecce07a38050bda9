"""Nothing is left pending when a golden sweep's trial ends.

Every deployment the ``test_trial_digests.py`` sweeps build (churn,
LIGLO outage, partition, retries, replication) must drain completely:
no request token in any node's, LIGLO client's, replication manager's
or LIGLO server's table, and no live timer on the kernel.
"""

from repro.eval import sweep

from tests.eval.test_trial_digests import SWEEPS

NODE_KEYS = (
    "pending_fetches",
    "pending_actives",
    "pending_data",
    "pending_liglo",
    "pending_offers",
)


def test_golden_sweeps_end_with_nothing_pending(monkeypatch):
    deployments = []

    def build_and_keep(*args, **kwargs):
        deployments.append(build_network(*args, **kwargs))
        return deployments[-1]

    build_network = sweep.build_network
    monkeypatch.setattr(sweep, "build_network", build_and_keep)
    for figure in ("churn", "routing", "topk", "replication"):
        SWEEPS[figure]()
    # One deployment per trial: churn 18, routing 14, topk 18, replication 9.
    assert len(deployments) == 59
    for deployment in deployments:
        assert deployment.sim.pending_events == 0
        for node in deployment.nodes:
            stats = node.statistics()
            leaked = {key: stats[key] for key in NODE_KEYS if stats[key]}
            assert not leaked, (node.name, leaked)
        for server in deployment.liglo_servers:
            assert server.stats()["pending_pings"] == 0
