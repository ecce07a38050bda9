"""Tests for the paper's StorM search agent and answer messages."""

import pytest

from repro.agents.costs import AgentCosts
from repro.agents.storm_agent import StorMSearchAgent

from tests.agents.helpers import AgentRig


class TestStorMSearchAgent:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            StorMSearchAgent("k", mode="telepathy")

    def test_index_and_scan_paths_agree(self):
        answers = {}
        for use_index in (False, True):
            rig = AgentRig()
            a, b = rig.line("a", "b")
            b.put_objects("jazz", 3, size=16)
            a.dispatch(StorMSearchAgent("jazz", use_index=use_index))
            rig.sim.run()
            (answer,) = a.answers
            answers[use_index] = answer.answer_count
        assert answers[False] == answers[True] == 3

    def test_reply_empty_reports_zero_matches(self):
        rig = AgentRig()
        a, b = rig.line("a", "b")
        # b shares nothing; a silent miss by default, an answer if asked.
        a.dispatch(StorMSearchAgent("ghost", reply_empty=True))
        rig.sim.run()
        (answer,) = a.answers
        assert answer.answer_count == 0
        assert answer.answer_bytes == 0

    def test_answer_bytes_totals_item_sizes(self):
        rig = AgentRig()
        a, b = rig.line("a", "b")
        b.put_objects("k", 2, size=40)
        a.dispatch(StorMSearchAgent("k"))
        rig.sim.run()
        (answer,) = a.answers
        assert answer.answer_bytes == 80


class RecordingContext:
    """Minimal stand-in for AgentContext to run the *original* class.

    Engine tests exercise the exec'd shipped copy (its code runs under an
    ``<agent:...>`` filename); executing the module's own class here keeps
    the search logic visible to coverage of this package.
    """

    def __init__(self, storm):
        self.storm = storm
        self.charged = []
        self.replies = []

    def charge_search(self, result):
        self.charged.append(result)

    def reply(self, items):
        self.replies.append(list(items))


class TestDirectExecution:
    def _storm(self, count=2, size=16):
        from repro.storm import StorM

        storm = StorM()
        for index in range(count):
            storm.put(["k"], bytes([index]) * size)
        return storm

    def test_direct_mode_carries_payloads(self):
        context = RecordingContext(self._storm())
        StorMSearchAgent("k", mode="direct").execute(context)
        (items,) = context.replies
        assert len(items) == 2
        assert all(item.payload is not None for item in items)
        assert len(context.charged) == 1

    def test_metadata_mode_strips_payloads(self):
        context = RecordingContext(self._storm())
        StorMSearchAgent("k", mode="metadata", use_index=True).execute(context)
        (items,) = context.replies
        assert all(item.payload is None for item in items)
        assert all(item.size == 16 for item in items)

    def test_silent_on_no_matches(self):
        context = RecordingContext(self._storm())
        StorMSearchAgent("ghost").execute(context)
        assert context.replies == []


class TestAgentCosts:
    def test_rejects_negative_knobs(self):
        with pytest.raises(ValueError):
            AgentCosts(class_install_time=-0.1)
        with pytest.raises(ValueError):
            AgentCosts(object_match_time=-1e-9)
