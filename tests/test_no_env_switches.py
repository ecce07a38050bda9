"""House rule, executable: the program grows no environment switches.

A mechanism has one implementation, turned off the way a caller already
can (``top_k=None``, ``ReplicationPolicy()``, ``strategy="static"``) —
never by a ``REPRO_*`` variable that keeps a second path alive.  The
process environment is read in exactly one place, for the one variable
that says *how* to execute a run, not *what* it computes.  The rule
covers ``src/``, ``benchmarks/`` and ``examples/``.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
SCANNED = ("src/repro", "benchmarks", "examples")

#: module (relative to the repository root) -> the variables it may read
ALLOWED_READERS = {"src/repro/eval/experiment.py": {"REPRO_JOBS"}}
ALLOWED_NAMES = set().union(*ALLOWED_READERS.values())

ENV_ACCESS = re.compile(r"\benviron\b|\bgetenv\b|\bputenv\b")
REPRO_NAME = re.compile(r"REPRO_[A-Z_]+")


def _sources():
    found = []
    for directory in SCANNED:
        files = sorted((ROOT / directory).rglob("*.py"))
        assert files, f"no sources under {directory}"
        found += [
            (path.relative_to(ROOT).as_posix(), path.read_text()) for path in files
        ]
    return found


def test_only_the_experiment_module_reads_the_environment():
    readers = {name for name, text in _sources() if ENV_ACCESS.search(text)}
    assert readers == set(ALLOWED_READERS)


def test_no_repro_variable_beyond_jobs_is_named_in_src():
    named = {
        (name, variable)
        for name, text in _sources()
        for variable in REPRO_NAME.findall(text)
        if variable not in ALLOWED_NAMES
    }
    assert named == set()
