"""Every figure and ablation takes one argument, ``params``.

Each experiment's shape (topology, node counts, sweep axes) is module
constants beside its function, so a ``figure_*`` / ``ablation_*`` with a
scale argument of its own would be a knob only tests turn.  The one
exception is ``figure_5a``'s ``sizes`` / ``runner``: the perf ledger's
``fig5a_paper`` workload times one star size per call through them.
"""

from __future__ import annotations

import inspect

import pytest

from repro.cli import ABLATIONS, FIGURES
from repro.eval.figures import figure_5a

#: function -> the parameters it takes after ``params``
SEAMS = {figure_5a: ("sizes", "runner")}

RUNS = {f"figure {name}": figure.run for name, figure in FIGURES.items()}
RUNS.update((f"ablation {name}", run) for name, run in ABLATIONS.items())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_params_is_the_only_argument(name):
    run = RUNS[name]
    parameters = inspect.signature(run).parameters
    assert list(parameters) == ["params", *SEAMS.get(run, ())]
    assert parameters["params"].default is inspect.Parameter.empty
