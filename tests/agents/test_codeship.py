"""Tests for code shipping."""

import pytest

from repro.agents.agent import Agent
from repro.agents.codeship import AgentCodeRegistry, extract_source
from repro.errors import CodeShippingError


class SampleAgent(Agent):
    """Module-level agent used to exercise source extraction."""

    def __init__(self, tag):
        self.tag = tag

    def execute(self, context):
        context.charge(0.0)


class TestExtractSource:
    def test_extracts_class_text(self):
        source = extract_source(SampleAgent)
        assert "class SampleAgent(Agent):" in source
        assert "def execute(self, context):" in source

    def test_rejects_non_agent(self):
        with pytest.raises(CodeShippingError):
            extract_source(dict)

    def test_rejects_instance(self):
        with pytest.raises(CodeShippingError):
            extract_source(SampleAgent("x"))


class TestRegistry:
    def test_register_local(self):
        registry = AgentCodeRegistry()
        name = registry.register_local(SampleAgent)
        assert name == "SampleAgent"
        assert registry.has("SampleAgent")
        assert registry.get("SampleAgent") is SampleAgent

    def test_install_executes_source(self):
        sender = AgentCodeRegistry()
        sender.register_local(SampleAgent)
        receiver = AgentCodeRegistry()
        installed = receiver.install("SampleAgent", sender.source_of("SampleAgent"))
        assert installed is not SampleAgent  # a genuinely separate class
        assert issubclass(installed, Agent)
        agent = installed("hello")
        assert agent.tag == "hello"
        assert receiver.installs == 1

    def test_install_idempotent(self):
        sender = AgentCodeRegistry()
        sender.register_local(SampleAgent)
        source = sender.source_of("SampleAgent")
        receiver = AgentCodeRegistry()
        first = receiver.install("SampleAgent", source)
        second = receiver.install("SampleAgent", source)
        assert first is second
        assert receiver.installs == 1

    def test_installed_class_is_reshippable(self):
        """A host that received a class can forward it onwards."""
        origin = AgentCodeRegistry()
        origin.register_local(SampleAgent)
        middle = AgentCodeRegistry()
        installed = middle.install("SampleAgent", origin.source_of("SampleAgent"))
        # extract_source works on the exec'd class via __shipped_source__.
        reshipped = extract_source(installed)
        far = AgentCodeRegistry()
        far.install("SampleAgent", reshipped)
        assert far.has("SampleAgent")

    def test_bad_source_rejected(self):
        registry = AgentCodeRegistry()
        with pytest.raises(CodeShippingError):
            registry.install("Broken", "def ] syntax error")

    def test_source_without_expected_class_rejected(self):
        registry = AgentCodeRegistry()
        with pytest.raises(CodeShippingError):
            registry.install("Missing", "x = 1\n")

    def test_source_with_non_agent_class_rejected(self):
        registry = AgentCodeRegistry()
        with pytest.raises(CodeShippingError):
            registry.install("NotAgent", "class NotAgent:\n    pass\n")

    def test_get_missing_raises(self):
        registry = AgentCodeRegistry()
        with pytest.raises(CodeShippingError):
            registry.get("Nope")
        with pytest.raises(CodeShippingError):
            registry.source_of("Nope")


class TestAgentState:
    def test_default_state_round_trip(self):
        agent = SampleAgent("payload")
        state = agent.get_state()
        clone = SampleAgent.from_state(state)
        assert clone.tag == "payload"

    def test_state_is_copy(self):
        agent = SampleAgent("x")
        state = agent.get_state()
        state["tag"] = "mutated"
        assert agent.tag == "x"
