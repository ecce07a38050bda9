"""Evaluation harness: the paper's methodology, metrics, and figures.

Section 4.1 proposes evaluating P2P systems on (1) a fixed set of nodes
(a controlled setting), (2) the *rate* at which answers return, and
(3) the quantity of answers.  ``metrics`` implements those measures,
``experiment`` the result shape, ``report`` text rendering, and
``figures`` one experiment definition per figure of Section 4.
"""

from repro.eval.experiment import FigureResult
from repro.eval.metrics import (
    Arrival,
    answer_curve,
    average_curves,
    response_curve,
)
from repro.eval.report import format_figure, format_table

__all__ = [
    "Arrival",
    "response_curve",
    "answer_curve",
    "average_curves",
    "FigureResult",
    "format_table",
    "format_figure",
]
