"""House rule, executable: ``src/`` grows no dead code.

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
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "repro"
EXAMPLES = ROOT / "examples"

PAPER = "paper surface: an operation of the node API the paper describes"
FUZZING = "kept for seeded fault fuzzing inside simulated runs"
LEDGER = "read by the perf ledger (perfledger/)"
TESTS = "test introspection: state or helpers only tests read"

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

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def test_every_unreferenced_name_is_allow_listed():
    dead = _dead_names()
    assert {name: dead[name] for name in dead.keys() - ALLOWED.keys()} == {}


def test_allow_list_names_only_unreferenced_definitions():
    assert sorted(ALLOWED.keys() - _dead_names().keys()) == []
