"""Code shipping: moving agent *classes* between hosts.

The prototype relied on Java serialization plus class loading: "both the
agent and its class have to be present for the agent to resume execution
at the destination engine.  Thus, if the class is not already at the
destination node, the class has to be transmitted also."

Here a class ships as its real Python source (via
:func:`inspect.getsource`), and the destination's
:class:`AgentCodeRegistry` ``exec``-utes it into an isolated namespace on
first arrival.  Later arrivals of the same class ship state only.

The exec namespace provides ``Agent`` (every shipped class subclasses
it); anything else an agent needs must be imported inside its methods so
the source stays self-contained.

Two process-wide caches keep the execute path O(1) after first use —
pure wall-clock optimisations that change nothing observable (per-host
``installs`` counters, charged install costs and wire bytes are the same
cold or warm; ``tests/agents/test_codeship_cache.py`` and
``tests/agents/test_clone_invariance.py`` assert exactly that):

* a **source cache** keyed by class identity, so
  :func:`extract_source` pays :func:`inspect.getsource` (a file scan
  plus a re-parse) at most once per class per process;
* a **compile cache** keyed by ``(class_name, sha256(source))``, so
  :meth:`AgentCodeRegistry.install` compiles and ``exec``-utes each
  shipped source once per process; later installs on other registries
  rebind the already-built class object.  Locally *defined* classes
  never enter the compile cache — a shipped source must always produce
  a class distinct from the sender's original.

Trust model: agents are arbitrary code run on behalf of remote peers —
exactly what the paper proposes.  This reproduction runs everything in
one process and makes no sandboxing claims; do not feed it hostile
sources.
"""

from __future__ import annotations

import hashlib
import inspect
import textwrap
import weakref

from repro.agents.agent import Agent
from repro.errors import CodeShippingError

#: class object -> dedented source.  Weak keys: exec'd classes from
#: short-lived registries must not be pinned by the cache.
_source_cache: "weakref.WeakKeyDictionary[type, str]" = weakref.WeakKeyDictionary()

#: (class_name, sha256 hex of source) -> the exec'd class object.
_compile_cache: dict[tuple[str, str], type] = {}


def clear_caches() -> None:
    """Drop both process-wide caches."""
    _source_cache.clear()
    _compile_cache.clear()


def extract_source(agent_class: type) -> str:
    """Return the dedented source text of an agent class.

    Works for classes defined in modules, scripts, and (via the
    ``linecache`` entries pytest and exec'd registries leave behind)
    classes that themselves arrived by code shipping.
    """
    if not (isinstance(agent_class, type) and issubclass(agent_class, Agent)):
        raise CodeShippingError(
            f"{agent_class!r} is not an Agent subclass",
            class_name=getattr(agent_class, "__name__", None),
        )
    # A class we installed ourselves remembers its shipped source.
    shipped = getattr(agent_class, "__shipped_source__", None)
    if shipped is not None:
        return shipped
    cached = _source_cache.get(agent_class)
    if cached is not None:
        return cached
    try:
        source = inspect.getsource(agent_class)
    except (OSError, TypeError) as exc:
        raise CodeShippingError(
            f"cannot extract source of {agent_class.__name__}: {exc}",
            class_name=agent_class.__name__,
        ) from exc
    source = textwrap.dedent(source)
    _source_cache[agent_class] = source
    return source


def _compile_install(class_name: str, source: str) -> type:
    """Execute shipped source and return the Agent subclass it defines."""
    namespace: dict[str, object] = {"Agent": Agent}
    try:
        exec(compile(source, f"<agent:{class_name}>", "exec"), namespace)
    except SyntaxError as exc:
        raise CodeShippingError(
            f"shipped source for {class_name!r} does not compile: {exc}",
            class_name=class_name,
        ) from exc
    installed = namespace.get(class_name)
    if not (isinstance(installed, type) and issubclass(installed, Agent)):
        raise CodeShippingError(
            f"shipped source does not define Agent subclass {class_name!r}",
            class_name=class_name,
        )
    installed.__shipped_source__ = source  # re-shippable from here
    return installed


class AgentCodeRegistry:
    """Per-host cache of agent classes, keyed by class name."""

    def __init__(self):
        self._classes: dict[str, type] = {}
        self._sources: dict[str, str] = {}
        #: counts installs, for tests and cost accounting
        self.installs = 0

    def has(self, class_name: str) -> bool:
        """True when the class is already present at this host."""
        return class_name in self._classes

    def get(self, class_name: str) -> type:
        """Fetch an installed class."""
        try:
            return self._classes[class_name]
        except KeyError:
            raise CodeShippingError(
                f"class {class_name!r} is not installed", class_name=class_name
            ) from None

    def source_of(self, class_name: str) -> str:
        """The source an installed class was installed from."""
        try:
            return self._sources[class_name]
        except KeyError:
            raise CodeShippingError(
                f"class {class_name!r} is not installed", class_name=class_name
            ) from None

    def register_local(self, agent_class: type) -> str:
        """Register a locally-defined class (the originating host's path).

        Returns the class name used on the wire.
        """
        source = extract_source(agent_class)
        name = agent_class.__name__
        self._classes[name] = agent_class
        self._sources[name] = source
        return name

    def install(self, class_name: str, source: str) -> type:
        """Install a shipped class by executing its source (idempotent).

        Identical source for the same class name compiles once per
        process; this registry only rebinds the cached class object.  The
        ``installs`` counter and the simulated install cost charged by
        the engine count every install — only the real compile/exec
        wall-clock is saved.
        """
        if class_name in self._classes:
            return self._classes[class_name]
        key = (class_name, hashlib.sha256(source.encode()).hexdigest())
        installed = _compile_cache.get(key)
        if installed is None:
            installed = _compile_install(class_name, source)
            _compile_cache[key] = installed
        self._classes[class_name] = installed
        self._sources[class_name] = source
        self.installs += 1
        return installed
