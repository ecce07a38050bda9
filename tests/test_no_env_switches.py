"""House rule, executable: the program grows no environment switches.

A mechanism has one implementation, turned off the way a caller already
can (``top_k=None``, ``ReplicationPolicy()``, ``strategy="static"``) —
never by a ``REPRO_*`` variable that keeps a second path alive.  No
module under ``src/``, ``benchmarks/`` or ``examples/`` reads the
environment, and no ``src/`` module imports ``multiprocessing``: every
experiment runs in the one seeded, single-threaded kernel.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
SCANNED = ("src/repro", "benchmarks", "examples")

ENV_ACCESS = re.compile(r"\benviron\b|\bgetenv\b|\bputenv\b")
REPRO_NAME = re.compile(r"REPRO_[A-Z_]+")
IMPORTS_MULTIPROCESSING = re.compile(
    r"^\s*(?:import|from)\s+multiprocessing\b", re.MULTILINE
)


def _sources():
    found = []
    for directory in SCANNED:
        files = sorted((ROOT / directory).rglob("*.py"))
        assert files, f"no sources under {directory}"
        found += [
            (path.relative_to(ROOT).as_posix(), path.read_text()) for path in files
        ]
    return found


def test_no_module_reads_the_environment():
    readers = {name for name, text in _sources() if ENV_ACCESS.search(text)}
    assert readers == set()


def test_no_repro_variable_is_named():
    named = {
        (name, variable)
        for name, text in _sources()
        for variable in REPRO_NAME.findall(text)
    }
    assert named == set()


def test_no_src_module_imports_multiprocessing():
    importers = {
        name
        for name, text in _sources()
        if name.startswith("src/") and IMPORTS_MULTIPROCESSING.search(text)
    }
    assert importers == set()
