"""The agent-path caches must save wall-clock and change nothing else.

Battery for the process-wide source and compile caches in
``repro.agents.codeship``: round-trip shipping hits the compile cache,
differing source misses it, ``__shipped_source__`` survives re-shipping,
and every simulated quantity (per-host ``installs``, charged install
costs, completion times, wire bytes) is identical with the caches cold
or warm.
"""

import pytest

from repro.agents import codeship
from repro.agents.agent import Agent
from repro.agents.codeship import AgentCodeRegistry, extract_source
from repro.agents.storm_agent import StorMSearchAgent
from repro.errors import CodeShippingError

from tests.agents.helpers import AgentRig


class EchoAgent(Agent):
    """Module-level agent the cache tests ship around."""

    def __init__(self, tag):
        self.tag = tag

    def execute(self, context):
        context.charge(0.0)


#: A second source that defines the *same* class name differently.
VARIANT_SOURCE = (
    "class EchoAgent(Agent):\n"
    "    def __init__(self, tag):\n"
    "        self.tag = ('variant', tag)\n"
    "\n"
    "    def execute(self, context):\n"
    "        context.charge(0.0)\n"
)


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts with cold process-wide caches."""
    codeship.clear_caches()
    yield
    codeship.clear_caches()


def _shipped_source() -> str:
    origin = AgentCodeRegistry()
    origin.register_local(EchoAgent)
    return origin.source_of("EchoAgent")


class TestCompileCache:
    def test_same_class_shipped_twice_hits_cache(self):
        source = _shipped_source()
        first = AgentCodeRegistry()
        second = AgentCodeRegistry()
        installed_first = first.install("EchoAgent", source)
        installed_second = second.install("EchoAgent", source)
        # The cached class object is rebound, not re-exec'd...
        assert installed_second is installed_first
        # ...but each registry still counts its own install.
        assert first.installs == 1
        assert second.installs == 1

    def test_cache_never_returns_the_local_original(self):
        """register_local must not seed the compile cache: shipped source
        always yields a class distinct from the sender's original."""
        source = _shipped_source()
        receiver = AgentCodeRegistry()
        installed = receiver.install("EchoAgent", source)
        assert installed is not EchoAgent
        assert issubclass(installed, Agent)

    def test_differing_source_same_name_misses(self):
        source = _shipped_source()
        a = AgentCodeRegistry()
        b = AgentCodeRegistry()
        genuine = a.install("EchoAgent", source)
        variant = b.install("EchoAgent", VARIANT_SOURCE)
        assert variant is not genuine
        assert variant("x").tag == ("variant", "x")
        assert genuine("x").tag == "x"

    def test_shipped_source_survives_reshipping_installed_class(self):
        source = _shipped_source()
        middle = AgentCodeRegistry()
        installed = middle.install("EchoAgent", source)
        assert installed.__shipped_source__ == source
        # Re-ship from the middle host: extraction returns the shipped
        # source verbatim, and a far host's install hits the cache.
        reshipped = extract_source(installed)
        assert reshipped == source
        far = AgentCodeRegistry()
        far_class = far.install("EchoAgent", reshipped)
        assert far_class is installed
        assert far_class.__shipped_source__ == source


class TestSourceCache:
    def test_extract_source_caches_per_class(self):
        first = extract_source(EchoAgent)
        # a hit hands back the cached string itself, not a fresh read
        assert extract_source(EchoAgent) is first
        codeship.clear_caches()
        again = extract_source(EchoAgent)
        assert again == first and again is not first

    def test_shipped_classes_skip_the_cache(self):
        """__shipped_source__ is already O(1); it must not burn entries."""
        source = _shipped_source()
        installed = AgentCodeRegistry().install("EchoAgent", source)
        codeship.clear_caches()
        assert extract_source(installed) is installed.__shipped_source__


def _flood_observables():
    """Drive one two-query flood; return every simulated observable."""
    rig = AgentRig()
    a, b, c, d = rig.line("a", "b", "c", "d")
    for node in (b, c, d):
        node.put_objects("k", 2)
    finish_times = []
    for _ in range(2):
        a.dispatch(StorMSearchAgent("k"))
        rig.sim.run()
        finish_times.append(rig.sim.now)
    return {
        "installs": {
            name: node.engine.registry.installs for name, node in rig.nodes.items()
        },
        "executed": {
            name: node.engine.agents_executed for name, node in rig.nodes.items()
        },
        "finish_times": finish_times,
        "answers": sorted(
            (str(ans.responder), ans.hops, ans.answer_count) for ans in a.answers
        ),
        "bytes_sent": {
            name: node.host.bytes_sent for name, node in rig.nodes.items()
        },
        "execute_events": [
            (event.time, event.get("service"))
            for event in rig.tracer.select("agent", "execute")
        ],
    }


def test_installs_and_charged_costs_identical_cold_vs_warm():
    """The caches may only change real wall-clock: the ``installs``
    counters, the charged install costs (visible in per-execute service
    times and completion times), and the wire bytes are bit-identical
    whether every install compiles (cold) or rebinds a cached class."""
    cold = _flood_observables()
    warm = _flood_observables()
    assert cold == warm


class TestClassNamePropagation:
    """Regression: CodeShippingError keeps the originating class name."""

    def test_dynamic_class_dispatch_keeps_class_name(self):
        # A type()-built (REPL-style) subclass has no retrievable source.
        DynamicAgent = type(
            "DynamicAgent", (Agent,), {"execute": lambda self, context: None}
        )
        rig = AgentRig()
        a, _b = rig.line("a", "b")
        with pytest.raises(CodeShippingError) as excinfo:
            a.dispatch(DynamicAgent())
        assert excinfo.value.class_name == "DynamicAgent"
        assert "DynamicAgent" in str(excinfo.value)
        (event,) = rig.tracer.select("agent", "ship-error")
        assert event.get("klass") == "DynamicAgent"

    def test_registry_errors_carry_class_name(self):
        registry = AgentCodeRegistry()
        for call in (registry.get, registry.source_of):
            with pytest.raises(CodeShippingError) as excinfo:
                call("Ghost")
            assert excinfo.value.class_name == "Ghost"
        with pytest.raises(CodeShippingError) as excinfo:
            registry.install("Broken", "def ] syntax error")
        assert excinfo.value.class_name == "Broken"
        with pytest.raises(CodeShippingError) as excinfo:
            registry.install("Missing", "x = 1\n")
        assert excinfo.value.class_name == "Missing"

    def test_non_agent_extract_carries_class_name(self):
        with pytest.raises(CodeShippingError) as excinfo:
            extract_source(dict)
        assert excinfo.value.class_name == "dict"
