"""The reproduction's claims, as executable checks — one table.

Section 4 makes qualitative claims ("SCS performs worse...", "BP
outperforms Gnutella in all runs").  Each is a :class:`Claim`: an id, a
quote, its figure and one combinator call over the reproduced
:class:`~repro.eval.experiment.FigureResult` (its series and, for the
churned-query figures, its per-trial dicts), keyed by what ``python -m
repro`` runs (``"5a"``, ``"churn"``, ``"ablation <name>"``) and tagged
``paper`` (the sixteen statements quoted from Section 4) or
``extension`` (every other shape the reproduction stands behind).

A combinator returns a :class:`Margin`, how far the deciding value is
from flipping the claim; its threshold is an argument of the row.
Probes read the evidence, and one that finds no series, point, index or
trial makes the claim ``MISSING``, not ``FAIL``.  Every claim is judged
at the published configuration (each figure's and ablation's defaults).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.errors import ExperimentError
from repro.eval.experiment import FigureResult

#: A statement quoted from the paper's Section 4.
PAPER = "paper"
#: A shape the reproduction asserts beyond the paper's sixteen quotes.
EXTENSION = "extension"
#: A claim's status, as the report prints it.
PASS, FAIL, MISSING = "PASS", "FAIL", "MISSING"
#: The trial fields a churned-query figure sweeps within one scheme.
SWEPT = ("ttl", "rate")

#: A probe reads a number, or a list of ``(x, y)`` points, from a result.
Probe = Callable[[FigureResult], Any]


class MissingEvidence(ExperimentError):
    """A probe found no series, point, index or trial to read."""


class Margin(NamedTuple):
    """How far a claim's deciding value is from flipping it: the signed
    gap between the two values compared, over the larger of them.  It
    holds when positive, and at exactly 0 only for an ``inclusive``
    bound (``<=``, ``>=``, ``==``).  Tuples order strict before inclusive
    at equal values, so ``min`` over a conjunction picks its decider."""

    value: float
    inclusive: bool

    @property
    def holds(self) -> bool:
        return self.value > 0 or (self.inclusive and self.value == 0)


def _margin(lo: float, hi: float, inclusive: bool) -> Margin:
    """``lo < hi`` (``lo <= hi`` when ``inclusive``)."""
    scale = max(abs(lo), abs(hi))
    return Margin((hi - lo) / scale if scale else 0.0, inclusive)


def _within(a: float, b: float, rel: float) -> Margin:
    """``|a - b| <= rel * max(a, b)``."""
    scale = max(a, b, 1e-12)
    return Margin((rel * scale - abs(a - b)) / scale, True)


def _series(result: FigureResult, name: str, start: float = -math.inf) -> list:
    found = [(x, y) for x, y in result.series.get(name, ()) if x >= start]
    if not found:
        raise MissingEvidence(f"series {name!r} has no point from x={start}")
    return found


def _lookup(points: list, x: Any) -> Any:
    for point_x, y in points:
        if point_x == x:
            return y
    raise MissingEvidence(f"no point at x={x}")


def _index(result: FigureResult, name: str, index: int) -> tuple[float, float]:
    try:
        return _series(result, name)[index]
    except IndexError:
        raise MissingEvidence(f"series {name!r} has no point {index}") from None


def points(name: str, start: float) -> Probe:
    """Series ``name``'s points from x = ``start`` on."""
    return lambda result: _series(result, name, start)


def y_of(name: str, index: int) -> Probe:
    """Series ``name``'s y at ``index``."""
    return lambda result: _index(result, name, index)[1]


def x_of(name: str, index: int) -> Probe:
    """Series ``name``'s x at ``index``."""
    return lambda result: _index(result, name, index)[0]


def first(name: str) -> Probe:
    """Series ``name``'s first y."""
    return y_of(name, 0)


def last(name: str) -> Probe:
    """Series ``name``'s last y."""
    return y_of(name, -1)


def y_at(name: str, x: float) -> Probe:
    """Series ``name``'s y at ``x``."""
    return lambda result: _lookup(_series(result, name), x)


def total(name: str) -> Probe:
    """The sum of series ``name``'s y values."""
    return lambda result: sum(y for _, y in _series(result, name))


def growth(name: str, start: float = -math.inf) -> Probe:
    """last / first y of series ``name`` from x = ``start`` on."""

    def probe(result: FigureResult) -> float:
        found = _series(result, name, start)
        if len(found) < 2:
            raise MissingEvidence(f"series {name!r} has one point to grow from")
        if found[0][1] <= 0:
            raise ExperimentError(f"series {name!r} starts at {found[0][1]}")
        return found[-1][1] / found[0][1]

    return probe


def _trials(result: FigureResult, keys: dict) -> list[dict]:
    """The trials whose fields equal ``keys`` (a tuple: any of its items)."""
    found = [
        trial
        for trial in result.trials
        if all(
            trial.get(key) in (value if isinstance(value, tuple) else (value,))
            for key, value in keys.items()
        )
    ]
    if not found:
        raise MissingEvidence(f"no trial with {keys}")
    return found


def _get(trial: dict, path: str) -> Any:
    for part in path.split("."):
        if not isinstance(trial, dict) or part not in trial:
            raise MissingEvidence(f"a trial has no {path!r}")
        trial = trial[part]
    return trial


def field(path: str, **keys) -> Probe:
    """Field ``path`` (dotted into nested dicts) of every trial whose
    fields equal ``keys``, as points keyed by the ``SWEPT`` fields that
    ``keys`` leaves free, so that two such probes pair trial by trial."""
    free = [name for name in SWEPT if name not in keys]
    return lambda result: [
        (tuple(trial.get(name) for name in free), _get(trial, path))
        for trial in _trials(result, keys)
    ]


def _read(result: FigureResult, operand: Any) -> Any:
    """A series name reads every point; a probe reads; a number is itself."""
    if isinstance(operand, str):
        return _series(result, operand)
    return operand(result) if callable(operand) else operand


def _pairs(result: FigureResult, a: Any, b: Any) -> list[tuple]:
    """``(a, b)`` at every point of ``a``; a number pairs with every point."""
    left, right = _read(result, a), _read(result, b)
    if not isinstance(left, list):
        return [(left, right)]
    if not isinstance(right, list):
        return [(y, right) for _, y in left]
    return [(y, _lookup(right, x)) for x, y in left]


class Check(NamedTuple):
    """A combinator bound to the arguments its table row wrote (so every
    threshold stays readable); calling it returns the claim's margin."""

    judge: Callable[..., Margin]
    args: tuple
    keys: tuple = ()

    def __call__(self, result: FigureResult) -> Margin:
        return self.judge(result, *self.args, **dict(self.keys))


def combinator(judge: Callable[..., Margin]) -> Callable[..., Check]:
    """Turn ``judge(result, *args)`` into the table's ``judge(*args)``."""

    def bind(*args, **keys) -> Check:
        return Check(judge, args, tuple(keys.items()))

    return functools.update_wrapper(bind, judge)


def _bound(result, a, b, k: float, inclusive: bool, upper: bool) -> Margin:
    """``a <= k * b`` if ``upper`` else ``a >= k * b``, at every point."""
    return min(
        _margin(y, k * bound, inclusive) if upper else _margin(k * bound, y, inclusive)
        for y, bound in _pairs(result, a, b)
    )


@combinator
def below(result: FigureResult, a, b, k: float = 1.0) -> Margin:
    """``a < k * b``."""
    return _bound(result, a, b, k, inclusive=False, upper=True)


@combinator
def at_most(result: FigureResult, a, b, k: float = 1.0) -> Margin:
    """``a <= k * b``."""
    return _bound(result, a, b, k, inclusive=True, upper=True)


@combinator
def above(result: FigureResult, a, b, k: float = 1.0) -> Margin:
    """``a > k * b``."""
    return _bound(result, a, b, k, inclusive=False, upper=False)


@combinator
def at_least(result: FigureResult, a, b, k: float = 1.0) -> Margin:
    """``a >= k * b``."""
    return _bound(result, a, b, k, inclusive=True, upper=False)


@combinator
def within(result: FigureResult, a, b, rel: float) -> Margin:
    """``|a - b| <= rel * max(a, b)``."""
    return min(_within(y, other, rel) for y, other in _pairs(result, a, b))


@combinator
def equals(result: FigureResult, a, b) -> Margin:
    """``a == b``."""
    return min(_within(y, other, 0.0) for y, other in _pairs(result, a, b))


@combinator
def flat(result: FigureResult, name: str, tol: float) -> Margin:
    """Series ``name``'s spread is within ``tol`` of its largest value."""
    values = [y for _, y in _series(result, name)]
    return _within(min(values), max(values), tol)


@combinator
def rises(result: FigureResult, name: str) -> Margin:
    """Series ``name`` never falls from one point to the next."""
    values = [y for _, y in _series(result, name)]
    if len(values) < 2:
        raise MissingEvidence(f"series {name!r} has one point")
    return min(_margin(lo, hi, True) for lo, hi in zip(values, values[1:]))


@combinator
def crosses(result: FigureResult, a: str, b: str, by: Any = math.inf) -> Margin:
    """Series ``a`` reaches ``b`` at a shared x no later than ``by``."""
    other, limit = dict(_series(result, b)), _read(result, by)
    gaps = [
        _margin(other[x], y, True)
        for x, y in _series(result, a)
        if x in other and x <= limit
    ]
    if not gaps:
        raise ExperimentError(f"series {a!r} and {b!r} share no x up to {limit}")
    return max(gaps)


@combinator
def fired(result: FigureResult, outage: bool = True, **keys) -> Margin:
    """At the highest swept rate every trial whose fields equal ``keys``
    crashed a node and, with ``outage``, took LIGLO down once and
    partitioned the network once."""
    trials = _trials(result, keys)
    top = max(_get(trial, "rate") for trial in trials)
    margins = []
    for trial in (trial for trial in trials if trial["rate"] == top):
        applied = _get(trial, "faults_applied")
        margins.append(_margin(1, applied.get("node-crash", 0), True))
        if outage:
            for kind in ("liglo-down", "partition"):
                margins.append(_within(applied.get(kind, 0), 1, 0.0))
    return min(margins)


@combinator
def all_of(result: FigureResult, *parts: Check) -> Margin:
    """Every part holds: the margin of the part nearest to failing."""
    return min(part(result) for part in parts)


@dataclass(frozen=True)
class Claim:
    """One verifiable statement about a reproduced figure."""

    claim_id: str
    figure: str
    quote: str
    check: Check
    tag: str = EXTENSION

    def status(self, result: FigureResult) -> str:
        """``MISSING`` when a probe found no evidence, ``FAIL`` when the
        combinator cannot judge, else ``PASS`` or ``FAIL`` by the margin."""
        try:
            margin = self.check(result)
        except MissingEvidence:
            return MISSING
        except ExperimentError:
            return FAIL
        return PASS if margin.holds else FAIL


#: The bounded accumulators the top-k claims are about.
TOPK_BOUNDS = (4, 16)
#: The top-k claims' healthy TTL-8 point.
TTL_8 = {"ttl": 8, "rate": 0.0}

#: The claim table: (key, figure label) -> claim id -> (quote, check[, tag]),
#: keyed by the ``repro figure`` name or ``"ablation <name>"`` whose result
#: carries its evidence.
_TABLE: dict[tuple[str, str], dict[str, tuple]] = {
    ("5a", "Figure 5(a)"): {
        "5a-scs": (
            "the Single-Thread CS performs worse than the other models",
            above(growth("SCS", 2), 5.0),  # from 2 nodes: 1 node takes ~0 s
            PAPER,
        ),
        "5a-parallel": (
            "both MCS and BP-based schemes outperform SCS significantly",
            above(points("SCS", 8), "CS", 2.0),  # "significantly": at scale
            PAPER,
        ),
        "5a-mcs": (
            "MCS is slightly better than BPS/BPR but the gain is not "
            "significant enough to be visible",
            within("CS", "BPS", 0.15),
            PAPER,
        ),
        "5a-static": (
            "BPS and BPR show similar performance (nothing to reconfigure)",
            within("BPS", "BPR", 0.05),
            PAPER,
        ),
        "5a-scs-5x": (
            "at the largest network SCS takes over 5x as long as MCS",
            above(last("SCS"), last("CS"), 5.0),
        ),
    },
    ("5b", "Figure 5(b)"): {
        "5b-level1": (
            "when the number of levels is 1, CS is superior",
            below(first("CS"), first("BPS")),
            PAPER,
        ),
        "5b-depth": (
            "as the number of levels increases, CS begans to degenerate",
            all_of(above(last("CS"), last("BPS")), above(growth("CS"), growth("BPS"))),
            PAPER,
        ),
        "5b-bpr": (
            "BPR outperforms BPS by virtue of ... a more optimal network",
            at_most("BPR", "BPS", 1.02),
            PAPER,
        ),
        "5b-cs-monotone": ("CS never gets faster as the tree deepens", rises("CS")),
    },
    ("5c", "Figure 5(c)"): {
        "5c-bpr": ("BPR is the best", at_most("BPR", "BPS", 1.02), PAPER),
        "5c-crossover": (
            "BPR outperforms CS for most cases (except when the number "
            "of nodes is very small)",
            crosses("CS", "BPR", x_of("CS", 1)),
            PAPER,
        ),
        "5c-ends": (
            "CS beats BPR on the 2-node line and loses to it on the longest",
            all_of(below(first("CS"), first("BPR")), above(last("CS"), last("BPR"))),
        ),
    },
    ("6", "Figure 6"): {
        "6-bpr": (
            "BPR is still the best scheme, outperforming BPS",
            at_most("BPR", "BPS", 1.02),
            PAPER,
        ),
        "6-cs-tail": (
            "except for the first few nodes, CS returns answers much "
            "slower than BPR/BPS",
            all_of(at_most(first("CS"), first("BPS")), above(last("CS"), last("BPS"))),
            PAPER,
        ),
    },
    ("7", "Figure 7"): {
        "7-complete": (
            "every scheme eventually returns every answer",
            all_of(equals(last("CS"), last("BPS")), equals(last("BPS"), last("BPR"))),
        ),
        "7-cs-first": (
            "CS returns the first few answers much faster than BPS and BPR",
            at_most(x_of("CS", 0), x_of("BPS", 0)),
        ),
        "7-cs-tail": (
            "as more answers are returned, BPS/BPR are superior over CS",
            above(x_of("CS", -1), x_of("BPS", -1)),
        ),
        "7-bpr": (
            "BPR is generally better than BPS (its last answer within 2%)",
            at_most(x_of("BPR", -1), x_of("BPS", -1), 1.02),
        ),
    },
    ("8a", "Figure 8(a)"): {
        "8a-flat": (
            "Gnutella is essentially not affected by the number of times "
            "the query is run",
            flat("Gnutella", 0.1),
            PAPER,
        ),
        "8a-first": (
            "for the first search, BP also need to route through the "
            "entire intermediate peers (first run is the highest)",
            all_of(above(first("BP"), y_of("BP", 1)), above(first("BP"), last("BP"))),
            PAPER,
        ),
        "8a-wins": (
            "BP outperforms Gnutella in all runs",
            below("BP", "Gnutella"),
            PAPER,
        ),
        "8a-settled": (
            "after the first search, reconfiguration connects BP straight "
            "to the nodes with answers (run 2 within 5% of run 3)",
            at_least(y_of("BP", 1), y_of("BP", 2), 0.95),
        ),
    },
    ("8b", "Figure 8(b)"): {
        "8b-improve": (
            "Gnutella's performance also improves with more peers",
            all_of(
                below(last("BP"), first("BP")),
                below(last("Gnutella"), first("Gnutella")),
            ),
            PAPER,
        ),
        "8b-superior": (
            "as the number of directly connected peers increases, BP remains superior",
            below("BP", "Gnutella"),
            PAPER,
        ),
    },
    ("churn", "Churn figure"): {
        "churn-healthy": (
            "with no churn, BPR and BPS both recall every answer",
            all_of(equals(y_at("BPR", 0.0), 1.0), equals(y_at("BPS", 0.0), 1.0)),
        ),
        "churn-hurts": (
            "at the highest churn rate both BPR and BPS lose answers",
            all_of(below(last("BPR"), 1.0), below(last("BPS"), 1.0)),
        ),
        "churn-bpr": (
            "under the highest churn, reconfiguring BPR recalls no less "
            "than static BPS",
            at_least(last("BPR"), last("BPS")),
        ),
        "churn-rf2": (
            "rf=2 replication on top of BPR never recalls less than BPR alone",
            at_least("BPR+RF2", "BPR"),
        ),
        "churn-faults": (
            "at the highest rate the fault plan crashed nodes, took LIGLO "
            "down once and partitioned the network once",
            fired(),
        ),
    },
    ("replication", "Replication figure"): {
        "replication-healthy": (
            "with no churn every replication scheme recalls 1.0",
            all_of(*(equals(y_at(s, 0.0), 1.0) for s in ("RF1", "RF2", "RF2+cache"))),
        ),
        "replication-resilient": (
            "at 30% churn RF2 and RF2+cache each keep recall >= 0.95",
            all_of(
                at_least(y_at("RF2", 0.3), 0.95),
                at_least(y_at("RF2+cache", 0.3), 0.95),
            ),
        ),
        "replication-rf1": (
            "at 30% churn single-copy RF1 recalls less than either replicated scheme",
            all_of(
                below(y_at("RF1", 0.3), y_at("RF2", 0.3)),
                below(y_at("RF1", 0.3), y_at("RF2+cache", 0.3)),
            ),
        ),
        "replication-answered": (
            "replica holders answered for dead owners and the hot-query cache hit",
            all_of(
                above(field("replication.replica_answers", scheme="RF2", rate=0.3), 0),
                above(field("replication.cache_hits", scheme="RF2+cache", rate=0.3), 0),
            ),
        ),
        "replication-overhead": (
            "RF2 spends at most 1.5x the RF1 bytes per query at every rate",
            at_most(
                field("bytes_per_query", scheme="RF2"),
                field("bytes_per_query", scheme="RF1"),
                1.5,
            ),
        ),
        "replication-cache-bytes": (
            "the result cache spends fewer bytes per query than plain RF2 "
            "at every rate",
            below(
                field("bytes_per_query", scheme="RF2+cache"),
                field("bytes_per_query", scheme="RF2"),
            ),
        ),
        "replication-faults": (
            "at the highest rate the churn plan crashed nodes under every scheme",
            fired(False),
        ),
    },
    ("routing", "Routing figure"): {
        "routing-healthy": (
            "MaxCount and static routing still recall every answer on a "
            "healthy network",
            all_of(
                equals(y_at("maxcount", 0.0), 1.0), equals(y_at("static", 0.0), 1.0)
            ),
        ),
        "routing-superpeer-recall": (
            "super-peer routing recalls no less than MaxCount, clean and under churn",
            at_least(
                field("mean_recall", strategy="superpeer"),
                field("mean_recall", strategy="maxcount"),
            ),
        ),
        "routing-superpeer-traffic": (
            "super-peer routing sends fewer messages and bytes per query "
            "than MaxCount, clean and under churn",
            all_of(
                *(
                    below(
                        field(cost, strategy="superpeer"),
                        field(cost, strategy="maxcount"),
                    )
                    for cost in ("messages_per_query", "bytes_per_query")
                )
            ),
        ),
        "routing-hints": (
            "the super-peer hint directory answered at every rate",
            at_least(field("hint_hits", strategy="superpeer"), 1),
        ),
        "routing-faults": (
            "at the churn point the fault plan crashed nodes, took LIGLO "
            "down once and partitioned the network once",
            fired(strategy=("maxcount", "superpeer", "history", "costaware")),
        ),
    },
    ("topk", "Top-k figure"): {
        "topk-bytes": (
            "at TTL 8 on a healthy network, k=4 and k=16 each at least "
            "halve the exhaustive bytes per query",
            at_most(
                field("bytes_per_query", k=TOPK_BOUNDS, **TTL_8),
                field("bytes_per_query", k=None, **TTL_8),
                0.5,
            ),
        ),
        "topk-quality": (
            "k=4 and k=16 lose no top-k answer quality against the "
            "exhaustive run at the same cutoff",
            all_of(
                *(
                    at_least(
                        field(f"quality.{k}", k=k, **TTL_8),
                        field(f"quality.{k}", k=None, **TTL_8),
                    )
                    for k in TOPK_BOUNDS
                )
            ),
        ),
        "topk-pruning": (
            "dominated answers die in-network as digests",
            all_of(
                above(field("dominated_per_query", k=TOPK_BOUNDS, **TTL_8), 0),
                above(field("digests_per_query", k=TOPK_BOUNDS, **TTL_8), 0),
            ),
        ),
        "topk-never-costs": (
            "a bounded accumulator never spends more bytes than the "
            "exhaustive flood, at any TTL or churn rate",
            at_most(
                field("bytes_per_query", k=TOPK_BOUNDS),
                field("bytes_per_query", k=None),
            ),
        ),
        "topk-faults": (
            "at the churn point the fault plan crashed nodes",
            fired(False, k=4, ttl=8),
        ),
    },
    ("ablation strategy", "Ablation A1"): {
        "A1-reconfigure": (
            "MaxCount and MinHops both end below static peers",
            all_of(
                below(last("maxcount"), last("static")),
                below(last("minhops"), last("static")),
            ),
        ),
        "A1-drop": (
            "MaxCount's completion drops after the first run",
            below(last("maxcount"), first("maxcount")),
        ),
    },
    ("ablation ttl", "Ablation A3"): {
        "A3-coverage": (
            "responders grow with the TTL until all 15 answer",
            all_of(rises("responders"), equals(last("responders"), 15)),
        ),
        "A3-completion": (
            "completion grows with coverage",
            below(first("completion (s)"), last("completion (s)")),
        ),
    },
    ("ablation result-mode", "Ablation A4"): {
        "A4-metadata": (
            "metadata-only answers complete no later than direct answers",
            at_most(total("metadata"), total("direct"), 1.02),
        ),
    },
    ("ablation buffer", "Ablation A5"): {
        "A5-mru": (
            "under repeated scans MRU ends below LRU",
            below(last("mru"), last("lru")),
        ),
    },
    ("ablation replication", "Ablation A6"): {
        "A6-first-answer": (
            "more replicas bring the first answer no later",
            at_most(last("first answer (s)"), first("first answer (s)")),
        ),
    },
    ("ablation shipping", "Ablation A7"): {
        "A7-code-first": (
            "code-shipping is cheaper for the first query",
            below(first("always-code"), first("always-data")),
        ),
        "A7-amortizes": (
            "data-shipping is cheaper cumulatively by the last query",
            below(last("always-data"), last("always-code")),
        ),
        "A7-crossover": (
            "cumulative code-shipping cost crosses data-shipping after query 1",
            all_of(
                below(y_at("always-code", 1), y_at("always-data", 1)),
                crosses("always-code", "always-data"),
            ),
        ),
        "A7-adaptive": (
            "the adaptive policy ends no worse than always shipping code",
            at_most(last("adaptive"), last("always-code")),
        ),
    },
}

#: Every claim, by key, in table order.
CLAIMS: dict[str, tuple[Claim, ...]] = {
    key: tuple(Claim(claim_id, label, *row) for claim_id, row in rows.items())
    for (key, label), rows in _TABLE.items()
}


def verify_figure(key: str, result: FigureResult) -> list[tuple[Claim, bool]]:
    """Judge every claim of one figure or ablation key: True only for PASS."""
    try:
        claims = CLAIMS[key]
    except KeyError:
        known = ", ".join(sorted(CLAIMS))
        raise ExperimentError(f"no claims for figure {key!r}; known: {known}") from None
    return [(claim, claim.status(result) == PASS) for claim in claims]


def verify_all(results: dict[str, FigureResult]) -> tuple[str, bool]:
    """Judge every claim of every key in ``results`` once: the report (the
    paper claims and their tally, then the extension claims and theirs)
    and whether every claim passed."""
    outcomes = [
        (claim, claim.status(results[key]))
        for key, claims in CLAIMS.items()
        if key in results
        for claim in claims
    ]
    sections = []
    for tag in (PAPER, EXTENSION):
        tagged = [(claim, status) for claim, status in outcomes if claim.tag == tag]
        lines = [f"[{status}] {c.figure}: {c.quote}" for c, status in tagged]
        passed = sum(status == PASS for _, status in tagged)
        lines.append(f"\n{passed}/{len(tagged)} {tag} claims hold")
        sections.append("\n".join(lines))
    return "\n\n".join(sections), all(status == PASS for _, status in outcomes)
