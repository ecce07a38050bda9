"""Tests for the FIFO queueing server."""

import pytest

from repro.errors import SimulationError
from repro.sim import FifoServer, Simulator


class TestFifoServer:
    def test_single_server_queues_fifo(self):
        sim = Simulator()
        server = FifoServer(sim, capacity=1)
        done = []
        server.submit(2.0, done.append, ("a",))
        server.submit(1.0, done.append, ("b",))
        sim.run()
        # "a" finishes at t=2; "b" starts at 2, finishes at 3 - FIFO, not SJF.
        assert done == [("a",), ("b",)]
        assert sim.now == 3.0

    def test_parallel_servers(self):
        sim = Simulator()
        server = FifoServer(sim, capacity=3)
        finish_times = {}

        def note(name):
            finish_times[name] = sim.now

        for name in ["a", "b", "c"]:
            server.submit(1.0, note, name)
        sim.run()
        assert finish_times == {"a": 1.0, "b": 1.0, "c": 1.0}

    def test_zero_service_time(self):
        sim = Simulator()
        server = FifoServer(sim)
        done = []
        server.submit(0.0, done.append, "x")
        sim.run()
        assert done == ["x"]
        assert sim.now == 0.0

    def test_negative_service_time_raises(self):
        sim = Simulator()
        server = FifoServer(sim)
        with pytest.raises(SimulationError):
            server.submit(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            server.charge(-1.0)

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            FifoServer(Simulator(), capacity=0)

    def test_utilization_accounting(self):
        sim = Simulator()
        server = FifoServer(sim, capacity=1)
        server.submit(2.0, lambda: None)
        server.submit(3.0, lambda: None)
        sim.run()
        assert server.busy_time == 5.0
        assert server.jobs_served == 2

    def test_submission_during_completion_callback(self):
        sim = Simulator()
        server = FifoServer(sim, capacity=1)
        done = []

        def resubmit():
            done.append(sim.now)
            if len(done) < 3:
                server.submit(1.0, resubmit)

        server.submit(1.0, resubmit)
        sim.run()
        assert done == [1.0, 2.0, 3.0]
