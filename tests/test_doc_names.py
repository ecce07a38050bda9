"""House rule, executable: the documents name only what the checkout has.

Every reference document — each ``*.md`` under ``docs/``, ``examples/``,
``perfledger/`` and ``.claude/``, the root documents in
:data:`ROOT_DOCUMENTS`, and ``BENCHMARK.json`` — is scanned for three
kinds of name, and each must resolve against this checkout:

* a dotted ``repro.…`` or ``perfledger.…`` name imports as a module, or
  as an attribute path below the longest prefix that imports;
* a ``repro figure X`` or ``repro ablation X`` command names a key of
  :data:`repro.cli.FIGURES` or :data:`repro.cli.ABLATIONS`;
* a ``REPRO_*`` name appears in the Python code of ``src/``, ``tests/``,
  ``perfledger/``, ``benchmarks/`` or ``examples/`` (this module aside).

The root's other documents (the change log and the roadmap among them)
record history and plans, which name what is gone; they are not
scanned.  A name that does not resolve fails here unless
:data:`UNRESOLVED` says why it stays, and that table can only shrink.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

from repro.cli import ABLATIONS, FIGURES

ROOT = Path(__file__).parent.parent

#: Root documents that describe the checkout as it is.
ROOT_DOCUMENTS = (
    "BENCHMARK.json",
    "CONTRIBUTING.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "PAPER.md",
    "PAPERS.md",
    "README.md",
    "SNIPPETS.md",
)
#: Folders whose every ``*.md`` is scanned.
DOCUMENT_TREES = ("docs", "examples", "perfledger", ".claude")
#: Where a ``REPRO_*`` name may be defined or read.
CODE_TREES = ("src", "tests", "perfledger", "benchmarks", "examples")

#: perfledger/ changes only together with the benchmark it defines.
WITH_THE_BENCHMARK = "perfledger/ changes only with the benchmark"
#: (document, name) -> why it may name what the checkout does not have
UNRESOLVED = {
    ("perfledger/README.md", "repro.live"): (
        f"a socket runtime this checkout does not ship; {WITH_THE_BENCHMARK}"
    ),
    ("perfledger/README.md", "repro figure scaling"): (
        f"the 10k-node figure went with the sharded kernel; {WITH_THE_BENCHMARK}"
    ),
}

DOTTED = re.compile(r"\b(?:repro|perfledger)(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
COMMAND = re.compile(r"\brepro (figure|ablation) ([A-Za-z0-9][A-Za-z0-9_-]*)")
SWITCH = re.compile(r"\bREPRO_[A-Z0-9_]+")


def _documents() -> list[Path]:
    found = [ROOT / name for name in ROOT_DOCUMENTS]
    for tree in DOCUMENT_TREES:
        found += sorted((ROOT / tree).rglob("*.md"))
    return found


def _imports(dotted: str) -> bool:
    """Does ``dotted`` import as a module, or as an attribute path below
    the longest prefix that imports?"""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            value = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(value, attribute):
                return False
            value = getattr(value, attribute)
        return True
    return False


def _code_text() -> str:
    here = Path(__file__).resolve()
    return "\n".join(
        path.read_text()
        for tree in CODE_TREES
        for path in sorted((ROOT / tree).rglob("*.py"))
        if path.resolve() != here
    )


def _unresolved(document: Path, code: str) -> set[str]:
    """Every name ``document`` uses that does not resolve."""
    text = document.read_text()
    # a sentence may end on a dotted name: ``repro.eval.claims.``
    dotted = {match.rstrip(".") for match in DOTTED.findall(text)}
    missing = {name for name in dotted if not _imports(name)}
    for kind, name in COMMAND.findall(text):
        if name not in (FIGURES if kind == "figure" else ABLATIONS):
            missing.add(f"repro {kind} {name}")
    missing |= {name for name in set(SWITCH.findall(text)) if name not in code}
    return missing


def _all_unresolved() -> set[tuple[str, str]]:
    """(document, name) for every name a document uses that does not resolve."""
    code = _code_text()
    return {
        (document.relative_to(ROOT).as_posix(), name)
        for document in _documents()
        for name in _unresolved(document, code)
    }


def test_every_document_exists():
    assert [path for path in _documents() if not path.is_file()] == []


def test_every_documented_name_resolves():
    assert sorted(_all_unresolved() - UNRESOLVED.keys()) == []


def test_the_unresolved_table_can_only_shrink():
    assert sorted(UNRESOLVED.keys() - _all_unresolved()) == []


def test_the_scan_sees_each_kind_of_stale_name(tmp_path):
    document = tmp_path / "NOTES.md"
    document.write_text(
        "`repro.eval.figures.figure_5a` and `repro.sim` resolve, as do\n"
        "`repro figure 5a` and `REPRO_REWRITE_VECTORS`; `repro.core.config.CostModel`,\n"
        "`perfledger.nowhere`, `repro ablation nothing` and `REPRO_JOBS` do not.\n"
    )
    assert _unresolved(document, _code_text()) == {
        "repro.core.config.CostModel",
        "perfledger.nowhere",
        "repro ablation nothing",
        "REPRO_JOBS",
    }
