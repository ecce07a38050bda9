"""House rule, executable: ``src/`` grows no dead code.

Every function, method and class defined in ``src/`` must be named
somewhere in ``src/`` or ``examples/`` besides its own ``def`` — as a
name, an attribute, an import, or a string (``getattr`` / ``__all__``).
A name whose only referrers are tests is dead weight the simulator
carries, so it fails here unless :data:`ALLOWED` says why it stays.
The list can only shrink: an entry whose name gained a referrer, or
was deleted, fails too.
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
    "measure": LEDGER,
    "addresses": TESTS,
    "answers_by_responder": TESTS,
    "cache_stats": TESTS,
    "class_names": TESTS,
    "clear_caches": TESTS,
    "clear_templates": TESTS,
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
    "is_monotone_decreasing": TESTS,
    "kinds": TESTS,
    "leased_count": TESTS,
    "link_window": TESTS,
    "live_addresses": TESTS,
    "live_count": TESTS,
    "live_entries": TESTS,
    "materialized": TESTS,
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
    "spawn": TESTS,
    "spec_for_id": TESTS,
    "store_for_items": TESTS,
    "summarize_shapes": TESTS,
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


def _dead_names() -> dict[str, list[str]]:
    """Every ``src/`` definition nothing else names -> where it is defined."""
    defined: dict[str, list[str]] = defaultdict(list)
    referenced: set[str] = set()
    files = sorted(SRC.rglob("*.py")) + sorted(EXAMPLES.rglob("*.py"))
    assert files, f"no sources under {SRC}"
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, DEFINITIONS):
                if SRC in path.parents:
                    where = f"{path.relative_to(SRC).as_posix()}:{node.lineno}"
                    defined[node.name].append(where)
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
