"""House rule, executable: ``src/`` grows no dead code and no test-only knob.

Every function, method and class defined in ``src/`` must be named
somewhere in ``src/`` or ``examples/`` besides its own ``def`` — as a
name, an attribute, an import, or a string (``getattr``).  A package
``__init__`` re-exporting a name (``from repro… import`` or
``__all__``) does not count: a re-export nobody uses is still dead.  A
class under a registering decorator (any but ``dataclass``) counts as
used, since the registry reaches it by name.  A name whose only
referrers are tests is dead weight the simulator carries, so it fails
here unless :data:`ALLOWED` says why it stays.  The list can only
shrink: an entry whose name gained a referrer, or was deleted, fails
too.

The parameter pass applies the same rule one level down: a defaulted
parameter that only tests pass is a switch.  Every defaulted parameter
of a ``def`` in ``src/`` (an ``__init__`` keyed by its class, e.g.
``LigloServer(capacity=)``) and every field of :data:`CONFIG_CLASSES`
must be set somewhere in ``src/``, ``examples/`` or ``perfledger/``: by
a keyword at a call, by a positional argument at its index, by a
``dataclasses.replace(..., field=)``, or by a keyword passed through a
``**kwargs`` forwarder to the callee it forwards to.  Calls match by
name, as names do above (``cls(...)`` in a class body names that class).  A parameter nobody sets fails here unless
:data:`PARAMETERS_ALLOWED` gives one of four reasons: ``FUZZING``,
``LEDGER``, ``PAPER`` or ``WIRE``.  There is no ``TESTS`` reason for a
parameter: one only tests turn becomes a constant in the module that
reads it, or leaves with the branch it selects.  That list can only
shrink too.
"""

from __future__ import annotations

import ast
import textwrap
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "repro"
EXAMPLES = ROOT / "examples"

PAPER = "paper surface: an operation of the node API the paper describes"
FUZZING = "kept for seeded fault fuzzing inside simulated runs"
LEDGER = "read by the perf ledger (perfledger/)"
TESTS = "test introspection: state or helpers only tests read"
PAPER_LIGLO_CAPACITY = (
    f"{PAPER}: a LIGLO server may refuse new members (Section 3.4; DESIGN.md, "
    "LIGLO row, 'capacity cap'), which sends a node on to the next server"
)
PAPER_LIGLO_SERVERS = (
    f"{PAPER}: a deployment runs several LIGLO servers (DESIGN.md, LIGLO "
    "row, 'multi-server deployments')"
)
WIRE = (
    "part of an agent class's shipped source or pickled state: editing it "
    "moves every frame that carries the agent"
)

#: name -> why it may have no referrer in ``src/`` or ``examples/``
ALLOWED = {
    "unshare": PAPER,
    "grep": PAPER,
    "FrameFaultInjector": FUZZING,
    "render_timeline": FUZZING,
    "event_counts": FUZZING,
    "busiest_hosts": FUZZING,
    "clear_templates": LEDGER,
    "addresses": TESTS,
    "answers_by_responder": TESTS,
    "cache_stats": TESTS,
    "class_names": TESTS,
    "clear_caches": TESTS,
    "depth": TESTS,
    "distinct_payload_count": TESTS,
    "edge_count": TESTS,
    "exists": TESTS,
    "frames_allocated": TESTS,
    "has_room_for": TESTS,
    "has_seen": TESTS,
    "held_copies": TESTS,
    "holders_of": TESTS,
    "host_at": TESTS,
    "hot_records": TESTS,
    "invalidate_data_cache": TESTS,
    "is_leased": TESTS,
    "kinds": TESTS,
    "leased_count": TESTS,
    "link_window": TESTS,
    "live_addresses": TESTS,
    "live_count": TESTS,
    "live_entries": TESTS,
    "member_count": TESTS,
    "merge": TESTS,
    "partitioned": TESTS,
    "peek": TESTS,
    "pending_events": TESTS,
    "posting_count": TESTS,
    "registered_specs": TESTS,
    "report_for": TESTS,
    "reshare": TESTS,
    "resident_pages": TESTS,
    "spec_for_id": TESTS,
    "store_for_items": TESTS,
    "total_answer_count": TESTS,
    "total_copies": TESTS,
    "unregister": TESTS,
}

#: parameter -> why nothing in ``src/``, ``examples/`` or ``perfledger/`` sets it
PARAMETERS_ALLOWED = {
    "FrameFaultInjector(seed=)": FUZZING,
    "truncate(keep=)": FUZZING,
    "bit_flip(position=)": FUZZING,
    "bit_flip(bit=)": FUZZING,
    "wrong_version(version=)": FUZZING,
    "link_window(src=)": FUZZING,
    "link_window(dst=)": FUZZING,
    "link_window(latency=)": FUZZING,
    "link_window(loss_probability=)": FUZZING,
    "churn(start=)": FUZZING,
    "render_timeline(categories=)": FUZZING,
    "render_timeline(start=)": FUZZING,
    "render_timeline(end=)": FUZZING,
    "render_timeline(limit=)": FUZZING,
    "busiest_hosts(top=)": FUZZING,
    "LigloServer(capacity=)": PAPER_LIGLO_CAPACITY,
    "build_network(liglo_count=)": PAPER_LIGLO_SERVERS,
    "StorMSearchAgent(use_index=)": WIRE,
    "StorMSearchAgent(reply_empty=)": WIRE,
    "ReplicatedSearchAgent(use_index=)": WIRE,
    "ReplicatedSearchAgent(reply_empty=)": WIRE,
    "TopKSearchAgent(use_index=)": WIRE,
    "DiscoveryAgent(max_keywords=)": WIRE,
}

#: Dataclasses whose fields the parameter pass treats as parameters.
CONFIG_CLASSES = frozenset({"BestPeerConfig", "ReplicationPolicy"})
#: Decorators whose wrapper supplies a function's first argument, so a
#: call's positional arguments start at the second (as for ``self``).
BINDING_DECORATORS = frozenset({"combinator"})
#: Where a parameter may be set, under a checkout's root.
SETTING_TREES = ("src", "examples", "perfledger")

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _referenced(node: ast.AST) -> str | None:
    """The name ``node`` refers to, if it refers to one."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.asname or node.name.rsplit(".", 1)[-1]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if node.value.isidentifier() else None
    return None


def _is_reexport(statement: ast.stmt) -> bool:
    """Is this top-level statement of a package ``__init__`` a re-export?"""
    if isinstance(statement, ast.ImportFrom):
        return statement.level == 0 and (statement.module or "").startswith("repro")
    if isinstance(statement, ast.Assign):
        return any(_referenced(target) == "__all__" for target in statement.targets)
    return False


def _registered(node: ast.ClassDef) -> bool:
    """Does a decorator other than ``dataclass`` hand the class to a registry?"""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if _referenced(target) != "dataclass":
            return True
    return False


def _dead_names() -> dict[str, list[str]]:
    """Every ``src/`` definition nothing else names -> where it is defined."""
    defined: dict[str, list[str]] = defaultdict(list)
    referenced: set[str] = set()
    files = sorted(SRC.rglob("*.py")) + sorted(EXAMPLES.rglob("*.py"))
    assert files, f"no sources under {SRC}"
    for path in files:
        tree = ast.parse(path.read_text())
        if path.name == "__init__.py":
            tree.body = [stmt for stmt in tree.body if not _is_reexport(stmt)]
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS):
                if SRC in path.parents:
                    where = f"{path.relative_to(SRC).as_posix()}:{node.lineno}"
                    defined[node.name].append(where)
                if isinstance(node, ast.ClassDef) and _registered(node):
                    referenced.add(node.name)
            else:
                name = _referenced(node)
                if name is not None:
                    referenced.add(name)
    return {
        name: where
        for name, where in defined.items()
        if name not in referenced and not name.startswith("__")
    }


def _callee(call: ast.Call) -> str | None:
    return _referenced(call.func)


def _first_bound(function: ast.FunctionDef | ast.AsyncFunctionDef, method: bool) -> bool:
    """Does something other than the caller supply the first argument?"""
    decorators = {_referenced(decorator) for decorator in function.decorator_list}
    if method:
        return "staticmethod" not in decorators
    return bool(decorators & BINDING_DECORATORS)


def _defaulted(tree: ast.Module, where: str) -> dict[str, tuple[int | None, str]]:
    """``"owner(name=)"`` -> (positional index at a call, location) for
    every defaulted parameter and config field one source defines."""
    found: dict[str, tuple[int | None, str]] = {}
    methods: dict[ast.AST, ast.ClassDef] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        fields = [
            statement.target.id
            for statement in node.body
            if isinstance(statement, ast.AnnAssign)
            and isinstance(statement.target, ast.Name)
        ]
        if node.name in CONFIG_CLASSES:
            for index, name in enumerate(fields):
                found[f"{node.name}({name}=)"] = (index, f"{where}:{node.lineno}")
        for statement in node.body:
            methods[statement] = node
    for node in ast.walk(tree):
        if not isinstance(node, FUNCTIONS):
            continue
        owner = methods.get(node)
        key = owner.name if owner is not None and node.name == "__init__" else node.name
        skip = 1 if _first_bound(node, owner is not None) else 0
        arguments = node.args
        positional = arguments.posonlyargs + arguments.args
        first = len(positional) - len(arguments.defaults)
        for index in range(first, len(positional)):
            found[f"{key}({positional[index].arg}=)"] = (
                index - skip,
                f"{where}:{node.lineno}",
            )
        for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
            if default is not None:
                found[f"{key}({argument.arg}=)"] = (None, f"{where}:{node.lineno}")
    return found


def _forwarders(trees: list[ast.Module]) -> dict[str, set[str]]:
    """Function -> the callees it hands its ``**kwargs`` to."""
    forwards: dict[str, set[str]] = defaultdict(set)
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, FUNCTIONS) or node.args.kwarg is None:
                continue
            kwargs = node.args.kwarg.arg
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and any(
                    keyword.arg is None and _referenced(keyword.value) == kwargs
                    for keyword in call.keywords
                ):
                    callee = _callee(call)
                    if callee is not None:
                        forwards[node.name].add(callee)
    return forwards


def _settings(trees: list[ast.Module]) -> tuple[set[str], dict[str, int]]:
    """Every ``"owner(name=)"`` a call sets by keyword (through forwarders
    too), and the most positional arguments any call passes each callee."""
    forwards = _forwarders(trees)
    keywords: set[str] = set()
    positional: dict[str, int] = defaultdict(int)

    def set_keyword(callee: str, name: str, seen: frozenset[str]) -> None:
        keywords.add(f"{callee}({name}=)")
        for target in forwards.get(callee, ()):
            if target not in seen:
                set_keyword(target, name, seen | {callee})

    for tree in trees:
        # ``cls(...)`` inside a class body calls that class
        own_class = {
            call: node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and _callee(call) == "cls"
        }
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            callee = own_class.get(call, _callee(call))
            if callee is None:
                continue
            for keyword in call.keywords:
                if keyword.arg is None:
                    continue
                set_keyword(callee, keyword.arg, frozenset())
                if callee == "replace":
                    keywords.update(f"{name}({keyword.arg}=)" for name in CONFIG_CLASSES)
            starred = any(isinstance(argument, ast.Starred) for argument in call.args)
            count = len(call.args) if not starred else 1 << 16
            positional[callee] = max(positional[callee], count)
    return keywords, positional


def _unset_parameters(root: Path) -> dict[str, str]:
    """Every defaulted parameter under ``root/src`` that nothing under
    :data:`SETTING_TREES` sets -> where it is defined."""
    defined: dict[str, tuple[int | None, str]] = {}
    for path in sorted((root / "src").rglob("*.py")):
        where = path.relative_to(root / "src").as_posix()
        defined.update(_defaulted(ast.parse(path.read_text()), where))
    trees = [
        ast.parse(path.read_text())
        for tree in SETTING_TREES
        for path in sorted((root / tree).rglob("*.py"))
    ]
    keywords, positional = _settings(trees)
    unset = {}
    for key, (index, where) in defined.items():
        owner = key.split("(", 1)[0]
        if key in keywords or (index is not None and positional.get(owner, 0) > index):
            continue
        unset[key] = where
    return unset


def _stale(allowed: dict[str, str], flagged: dict[str, str]) -> list[str]:
    """Allow-list entries that no longer name a flagged definition."""
    return sorted(allowed.keys() - flagged.keys())


def test_every_unreferenced_name_is_allow_listed():
    dead = _dead_names()
    assert {name: dead[name] for name in dead.keys() - ALLOWED.keys()} == {}


def test_allow_list_names_only_unreferenced_definitions():
    assert _stale(ALLOWED, _dead_names()) == []


def test_every_unset_parameter_is_allow_listed():
    unset = _unset_parameters(ROOT)
    assert {key: unset[key] for key in unset.keys() - PARAMETERS_ALLOWED.keys()} == {}


def test_parameter_allow_list_names_only_unset_parameters():
    assert _stale(PARAMETERS_ALLOWED, _unset_parameters(ROOT)) == []


def test_parameter_allow_list_gives_no_test_reason():
    assert all(
        reason in (FUZZING, LEDGER, WIRE) or reason.startswith(PAPER)
        for reason in PARAMETERS_ALLOWED.values()
    )



#: A synthetic ``src/`` for the parameter pass to check itself against.
SYNTHETIC_SRC = """
    from dataclasses import dataclass


    @dataclass(frozen=True)
    class BestPeerConfig:
        ttl: int = 7
        top_k: int | None = None


    class Engine:
        def __init__(self, host, quiet=False):
            self.quiet = quiet

        def dispatch(self, agent, path=None, hops=1):
            return path, hops


    def knob(value=1):
        return value


    def churned_run(rate, **config_fields):
        return BestPeerConfig(**config_fields)


    def dispatch_agent(engine, agent, **kwargs):
        return engine.dispatch(agent, **kwargs)
"""


def _checkout(root: Path, files: dict[str, str]) -> Path:
    """A checkout under ``root`` holding ``files`` (relative path -> text)."""
    for name, text in {"src/repro/synthetic.py": SYNTHETIC_SRC, **files}.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return root


ALL_SYNTHETIC = {
    "BestPeerConfig(ttl=)",
    "BestPeerConfig(top_k=)",
    "Engine(quiet=)",
    "dispatch(path=)",
    "dispatch(hops=)",
    "knob(value=)",
}


class TestParameterPass:
    def test_a_parameter_only_tests_set_is_flagged(self, tmp_path):
        root = _checkout(tmp_path, {"tests/test_knob.py": "knob(value=2)\nknob(3)\n"})
        assert set(_unset_parameters(root)) == ALL_SYNTHETIC

    def test_examples_perfledger_and_forwarders_are_setters(self, tmp_path):
        root = _checkout(
            tmp_path,
            {
                "examples/demo.py": "Engine(None, quiet=True)\nknob(5)\n",
                "perfledger/scenario.py": "replace(config, ttl=3)\n",
                "src/repro/caller.py": (
                    "dispatch_agent(engine, agent, path=['a'])\n"
                    "churned_run(0.1, top_k=4)\n"
                ),
            },
        )
        assert set(_unset_parameters(root)) == {"dispatch(hops=)"}

    def test_a_positional_argument_sets_only_its_index(self, tmp_path):
        root = _checkout(tmp_path, {"examples/demo.py": "engine.dispatch(agent, 'path')\n"})
        assert "dispatch(path=)" not in _unset_parameters(root)
        assert "dispatch(hops=)" in _unset_parameters(root)

    def test_cls_calls_its_own_class(self, tmp_path):
        made = """
            class Made:
                def __init__(self, size=1):
                    self.size = size

                @classmethod
                def twice(cls):
                    return cls(2)
        """
        root = _checkout(tmp_path, {"src/repro/made.py": made})
        assert "Made(size=)" not in _unset_parameters(root)

    def test_the_allow_list_can_only_shrink(self, tmp_path):
        unset = _unset_parameters(
            _checkout(tmp_path, {"examples/demo.py": "knob(value=2)\n"})
        )
        allowed = {"Engine(quiet=)": FUZZING, "knob(value=)": FUZZING, "gone(x=)": PAPER}
        # knob gained a setter and gone() was deleted: both entries are stale
        assert _stale(allowed, unset) == ["gone(x=)", "knob(value=)"]
