"""Tests for the Gnutella baseline."""

from repro.agents.costs import AgentCosts
from repro.baselines.gnutella import build_gnutella_network
from repro.topology import line, random_graph, ring

FAST = AgentCosts(
    class_install_time=0.005,
    state_install_time=0.001,
    execute_overhead=0.001,
    page_io_time=0.0001,
    object_match_time=0.000001,
)


def fill(servent, index, keyword="mp3", count=3):
    """``count`` matches on every servent but the base (index 0)."""
    if index == 0:
        return
    for i in range(count):
        servent.storm.put([keyword], bytes([index]) * 64)


class TestQueryFlooding:
    def test_hits_route_back_to_origin(self):
        deployment = build_gnutella_network(line(4), costs=FAST)
        deployment.populate(fill)
        handle = deployment.base.issue_query("mp3")
        deployment.sim.run()
        assert handle.network_answer_count == 9
        assert handle.responders == {"gnut-1", "gnut-2", "gnut-3"}

    def test_hits_carry_names_not_payloads(self):
        deployment = build_gnutella_network(line(2), costs=FAST)
        deployment.servent(1).storm.put(["mp3"], b"x" * 1024)
        handle = deployment.base.issue_query("mp3")
        deployment.sim.run()
        # The handle records hits; files are (name, size) pairs only.
        assert handle.network_answer_count == 1

    def test_ttl_bounds_flooding(self):
        deployment = build_gnutella_network(line(5), costs=FAST)
        deployment.populate(fill)
        handle = deployment.base.issue_query("mp3", ttl=2)
        deployment.sim.run()
        assert handle.responders == {"gnut-1", "gnut-2"}

    def test_duplicate_queries_dropped_on_cycles(self):
        deployment = build_gnutella_network(ring(4), costs=FAST)
        deployment.populate(fill)
        handle = deployment.base.issue_query("mp3")
        deployment.sim.run()
        # Each servent answers exactly once despite the cycle.
        assert len(handle.arrivals) == 3
        assert all(s.queries_handled <= 1 for s in deployment.servents)

    def test_relay_counter(self):
        deployment = build_gnutella_network(line(3), costs=FAST)
        fill(deployment.servent(2), 2)
        handle = deployment.base.issue_query("mp3")
        deployment.sim.run()
        # gnut-2's hit passed through gnut-1.
        assert deployment.servent(1).hits_relayed == 1
        assert handle.network_answer_count == 3

    def test_search_path_is_stable_across_runs(self):
        """Gnutella is 'essentially not affected by the number of times
        the query is run' - same fixed peers, same path, same time."""
        deployment = build_gnutella_network(random_graph(8, 3, seed=2), costs=FAST)
        deployment.populate(fill)
        times = []
        for _ in range(3):
            handle = deployment.base.issue_query("mp3")
            deployment.sim.run()
            times.append(handle.completion_time)
        assert max(times) - min(times) < 0.2 * max(times)
