"""Kernel events per delivered packet on a flood: exactly two.

A delivered packet costs two kernel events: its arrival
(``Network._arrive``, scheduled once by ``Host.send``) and its dispatch
job on the receiver's CPU.  An agent's execution costs one more only
when it has something to release when its CPU time is paid (answers, an
itinerary's next stop); a flood agent that found nothing just books its
CPU slot.  Counted at ``Simulator.step`` on the perf ledger's flood
workload at smoke scale (100 nodes, degree 4, per-edge latency jitter).
"""

from __future__ import annotations

from perfledger.scenarios import Flood1k
from repro.agents.engine import AgentContext


def test_a_flood_costs_two_events_per_delivered_packet(monkeypatch):
    workload = Flood1k(seed=1, smoke=True)
    workload.setup()
    network, sim = workload.deployment.network, workload.deployment.sim
    steps = 0
    step = sim.step

    def counting_step() -> bool:
        nonlocal steps
        steps += 1
        return step()

    monkeypatch.setattr(sim, "step", counting_step)
    with_outputs: dict[int, AgentContext] = {}  # held, so no id is reused
    send = AgentContext.send

    def noting_send(context, *args) -> None:
        with_outputs[id(context)] = context
        send(context, *args)

    monkeypatch.setattr(AgentContext, "send", noting_send)
    delivered, dropped = network.packets_delivered, network.packets_dropped
    outcome = workload.op(0, harness=None)
    delivered = network.packets_delivered - delivered
    assert outcome.failed == 0 and network.packets_dropped == dropped
    assert len(with_outputs) == 2  # the two planted copies answer
    assert delivered > 2 * 100
    assert steps == 2 * delivered + len(with_outputs)
