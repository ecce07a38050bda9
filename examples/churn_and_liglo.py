"""Churn and LIGLO: recognizing peers whose IP addresses change.

The scenario Section 3.4 is built for: a set of collaborators on
dial-up-style connections.  Every time a node reconnects it receives a
*different* IP address, yet its peers keep finding it because its BPID
is permanent and its LIGLO server tracks the current address.

The example walks through: registration (BPID issuance), a disconnect/
reconnect cycle with a changed IP, the Section-2 rejoin protocol (peers
refreshed through each peer's own LIGLO), LIGLO validity checks marking
silent nodes offline, a query that still works after all the churn, and
one that runs through a fault plan's lossy-link window.

Run:  python examples/churn_and_liglo.py
"""

from repro import BestPeerConfig, build_network, ring
from repro.faults import FaultPlan, SimFaultInjector


def main() -> None:
    net = build_network(
        5,
        config=BestPeerConfig(max_direct_peers=4),
        topology=ring(5),
        liglo_check_interval=30.0,  # periodic validity checks
    )
    # The friend is one of the base's direct (ring-neighbor) peers.
    base, friend = net.nodes[0], net.nodes[1]
    friend.share(["thesis"], b"chapter 3, revision 7")

    print("Identities issued by LIGLO:")
    for node in net.nodes:
        print(f"  {node.name}: BPID {node.bpid} @ {node.host.address}")

    # ------------------------------------------------------------------
    # The friend churns: disconnect, reconnect under a fresh IP.
    # ------------------------------------------------------------------
    old_address = friend.host.address
    friend.leave()
    friend.rejoin()  # reconnect + announce new IP + refresh its peers
    net.sim.run()
    print(f"\n{friend.name} reconnected: {old_address} -> {friend.host.address}")
    assert friend.host.address != old_address

    # The base rejoins too; the Section-2 protocol refreshes each peer's
    # address through that peer's registered LIGLO.
    base.leave()
    base.rejoin()
    net.sim.run()
    refreshed = base.peers.get(friend.bpid)
    print(f"{base.name} resolved {friend.bpid} to {refreshed.address} "
          f"(current: {friend.host.address})")
    assert refreshed.address == friend.host.address

    # ------------------------------------------------------------------
    # Queries keep working across the churn.
    # ------------------------------------------------------------------
    handle = base.issue_query("thesis")
    net.sim.run()
    print(f"\nQuery found {handle.network_answer_count} answer(s) from "
          f"{[str(b) for b in handle.responders]}")
    base.finish_query(handle)

    # ------------------------------------------------------------------
    # Validity checks: a silently-vanished node gets marked offline.
    # ------------------------------------------------------------------
    ghost = net.nodes[4]
    ghost_bpid = ghost.bpid
    ghost.leave()  # no notice given - nodes are not obliged to tell LIGLO
    net.sim.run(until=net.sim.now + 90.0)  # let validity checks fire
    server = net.liglo_servers[0]
    entry = server.lookup(ghost_bpid)
    print(f"\nAfter validity checks, LIGLO marks {ghost_bpid}: "
          f"online={entry.online}")
    assert not entry.online

    # The base cleans the dead peer out on its next rejoin.
    base.leave()
    base.rejoin()
    net.sim.run()
    print(f"{base.name} direct peers now: "
          f"{[str(b) for b in base.peers.bpids()]}")
    assert ghost_bpid not in base.peers

    # ------------------------------------------------------------------
    # A lossy spell: a fault plan drops most packets on every link for
    # a while; a query issued inside it comes back short, one after it
    # comes back whole.
    # ------------------------------------------------------------------
    window = FaultPlan.link_window(0.0, 30.0, loss_probability=0.9)
    SimFaultInjector(net, FaultPlan((window,))).arm()
    for label in ("inside the window", "after the window"):
        net.sim.run(until=net.sim.now + 1.0)
        handle = base.issue_query("thesis")
        net.sim.run(until=net.sim.now + 29.0)
        print(f"\nQuery {label}: {handle.network_answer_count} answer(s), "
              f"{net.network.drops_by_reason.get('loss', 0)} packet(s) lost so far")
        base.finish_query(handle)
    assert handle.network_answer_count == 1

if __name__ == "__main__":
    main()
