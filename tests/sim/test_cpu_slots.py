"""The CPU as a slot clock, checked against a queueing server.

A host's CPU is a :class:`~repro.sim.FifoServer` with one slot per
thread.  It keeps no queue: jobs are admitted in time order, so a job
starts at ``max(now, earliest slot free time)`` and ends ``service_time``
later, and a submit schedules only the job's callback, once, at that
end; ``charge`` books a slot and schedules nothing.  The reference below
is the server that clock replaced: a FIFO queue whose completion event
starts the next queued job and then runs the callback.  Random programs
of submits and charges (capacity 1-8, k/1024 s values so exact ties are
common, follow-up jobs submitted from completion callbacks, several
``run()`` calls) must give bit-identical completion times and, once the
simulation is quiet, bit-identical ``busy_time`` and ``jobs_served``.  A
charge must delay later jobs exactly as ``submit(..., noop)`` did, also
after ``run()`` has returned while the charged slot is still busy.

One ordering changed on purpose: a queued job's event draws its sequence
number when the job is submitted, not when the job ahead of it ends, so
it can fire before an event due at the same instant that was scheduled
in between (:func:`test_a_queued_job_draws_its_sequence_number_at_submit`).

The kernel half: ``schedule_at`` entries carry no ``Timer`` and share
one heap and one sequence counter with cancellable ``schedule`` timers;
``peek``, compaction, ``pending_events`` and ``run(until)`` stay exact
with both kinds on the heap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.sim import FifoServer, Simulator

TICK = 1 / 1024
#: Multiples of 1/1024 s add up exactly, so jobs often end, and are
#: submitted, at the same instant; the floats make the arithmetic awkward.
VALUES = st.one_of(
    st.integers(min_value=0, max_value=6).map(lambda k: k * TICK),
    st.floats(min_value=0.0, max_value=0.01, allow_nan=False),
)


def noop() -> None:
    pass


class QueueingServer:
    """The queue-based ``FifoServer`` the slot clock replaced (reference)."""

    def __init__(self, sim: Simulator, capacity: int):
        self.sim = sim
        self.capacity = capacity
        self.busy = 0
        self._queue: deque = deque()
        self.busy_time = 0.0
        self.jobs_served = 0

    def submit(self, service_time, callback, *args) -> None:
        if self.busy < self.capacity:
            self._start(service_time, callback, args)
        else:
            self._queue.append((service_time, callback, args))

    def _start(self, service_time, callback, args) -> None:
        self.busy += 1
        self.busy_time += service_time
        self.sim.schedule(service_time, self._complete, callback, args)

    def _complete(self, callback, args) -> None:
        self.busy -= 1
        self.jobs_served += 1
        if self._queue:
            self._start(*self._queue.popleft())
        callback(*args)


@dataclass(frozen=True)
class Job:
    at: float  # offset from the start of its phase
    service: float
    charge: bool  # charge() rather than submit()
    then: float | None  # service of a follow-up job its callback submits


JOBS = st.builds(Job, VALUES, VALUES, st.booleans(), st.one_of(st.none(), VALUES))
PROGRAMS = st.tuples(
    st.integers(min_value=1, max_value=8),
    st.lists(st.lists(JOBS, min_size=1, max_size=20), min_size=1, max_size=3),
)


def drive(sim, server, phases, charge, stops=None):
    """Run ``phases`` on ``server``, each phase's jobs offset from the time
    the previous ``run()`` returned at.

    ``charge(job_id, service, done)`` books a job with nothing to run and
    records its end in ``done``.
    With ``stops``, phase *k* but the last runs only up to ``stops[k]``.
    Returns each job's completion time and the times each run returned at.
    """
    done: dict = {}

    def start(job_id, job: Job) -> None:
        if job.charge:
            charge(job_id, job.service, done)
        else:
            server.submit(job.service, finish, job_id, job)

    def finish(job_id, job: Job) -> None:
        done[job_id] = sim.now
        if job.then is not None:
            start((job_id, "then"), Job(0.0, job.then, False, None))

    returned = []
    for index, phase in enumerate(phases):
        for number, job in enumerate(phase):
            sim.schedule_at(sim.now + job.at, start, (index, number), job)
        if stops is None or index == len(phases) - 1:
            returned.append(sim.run())
        else:
            returned.append(sim.run(until=stops[index]))
    return done, returned


def run_slots(capacity, phases):
    sim = Simulator()
    server = FifoServer(sim, capacity=capacity)

    def charge(job_id, service, done):
        done[job_id] = server.charge(service)

    done, returned = drive(sim, server, phases, charge)
    return done, returned, server


def run_reference(capacity, phases, stops):
    sim = Simulator()
    server = QueueingServer(sim, capacity)

    def charge(job_id, service, done):
        server.submit(service, lambda: done.__setitem__(job_id, sim.now))

    done, returned = drive(sim, server, phases, charge, stops)
    return done, returned, server


@settings(max_examples=300, deadline=None)
@given(PROGRAMS)
def test_completions_match_a_queueing_server_bit_for_bit(program):
    capacity, phases = program
    done, returned, server = run_slots(capacity, phases)
    # The reference's noop completions keep its run() going; stop each of
    # its phases where the slot clock's run() returned, so the next phase
    # starts at the same instant, with the charged slots still busy.
    expected, reference_returned, reference = run_reference(capacity, phases, returned)
    assert reference_returned[:-1] == returned[:-1]
    assert done == expected
    assert server.busy_time == reference.busy_time
    assert server.jobs_served == reference.jobs_served


def test_a_charge_holds_its_slot_after_run_returns():
    sim = Simulator()
    server = FifoServer(sim, capacity=1)
    assert server.charge(5.0) == 5.0
    assert sim.run() == 0.0 and sim.pending_events == 0
    done = []
    server.submit(1.0, lambda: done.append(sim.now))
    sim.run()
    assert done == [6.0]
    assert server.busy_time == 6.0 and server.jobs_served == 2


def test_a_queued_job_draws_its_sequence_number_at_submit():
    # "b" queues behind "a" and ends at t=2; "x" is scheduled for t=2
    # after "b" was submitted.  The queueing server drew b's number when
    # "a" ended, after x's, so "x" fired first; the slot clock draws it at
    # submit.  Every time is the same, only the same-instant order moved.
    def order(make):
        sim = Simulator()
        server = make(sim)
        fired = []
        server.submit(1.0, lambda: fired.append(("a", sim.now)))
        server.submit(1.0, lambda: fired.append(("b", sim.now)))
        sim.schedule(2.0, lambda: fired.append(("x", sim.now)))
        sim.run()
        return fired

    assert order(lambda sim: QueueingServer(sim, 1)) == [("a", 1.0), ("x", 2.0), ("b", 2.0)]
    assert order(lambda sim: FifoServer(sim, capacity=1)) == [("a", 1.0), ("b", 2.0), ("x", 2.0)]


def test_submit_costs_one_event_and_charge_none():
    sim = Simulator()
    server = FifoServer(sim, capacity=2)
    for _ in range(3):
        server.submit(1.0, noop)
    server.charge(1.0)
    assert sim.pending_events == 3


class TestMixedHeap:
    def test_schedule_at_returns_nothing_and_shares_the_sequence(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 0)
        assert sim.schedule_at(1.0, fired.append, 1) is None
        sim.schedule(1.0, fired.append, 2)
        sim.schedule_at(0.5, fired.append, "first")
        sim.run()
        assert fired == ["first", 0, 1, 2]

    def test_peek_and_pending_events_over_both_kinds(self):
        sim = Simulator()
        head = sim.schedule(1.0, noop)
        sim.schedule_at(2.0, noop)
        sim.schedule_daemon(3.0, noop).cancel()
        sim.schedule(4.0, noop)
        head.cancel()
        assert sim.pending_events == 2
        assert sim.peek() == 2.0
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0 and sim.peek() is None and sim.now == 4.0

    def test_compaction_keeps_every_bare_entry(self):
        sim = Simulator()
        fired = []
        timers = []
        for index in range(100):
            if index < 20:
                sim.schedule_at(1.0 + index, fired.append, ("at", index))
            timers.append(sim.schedule(1.5 + index, fired.append, ("timer", index)))
        for timer in timers[:90]:
            timer.cancel()
        assert sim.pending_events == 30
        # Corpses came to outnumber the live entries, so the heap was swept.
        assert len(sim._heap) <= 2 * sim.pending_events < 120
        sim.run()
        due = [(1.0 + i, ("at", i)) for i in range(20)]
        due += [(1.5 + i, ("timer", i)) for i in range(90, 100)]
        assert fired == [label for _, label in sorted(due)]
        assert sim.pending_events == 0

    def test_run_until_is_not_fooled_by_a_cancelled_head(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "cancelled").cancel()
        sim.schedule_at(10.0, fired.append, "at")
        assert sim.run(until=5.0) == 5.0
        assert fired == []
        sim.run()
        assert fired == ["at"] and sim.now == 10.0

    def test_schedule_at_a_past_time_raises_and_pushes_nothing(self):
        sim = Simulator()
        sim.schedule_at(2.0, noop)
        sim.run()
        sim.schedule(1.0, noop)
        with pytest.raises(SchedulingError, match="t=1.0"):
            sim.schedule_at(1.0, noop)
        assert sim.pending_events == 1 and len(sim._heap) == 1
