"""Statistical interference and performance models (Section III-B).

Regression models of task run-time performance as a function of
resource usage/allocation: linear for CPU, piece-wise linear for
memory, exponential for I/O -- the model families the paper adopts
from MROrchestrator [31] and TRACON [13].
"""

from repro.interference.models import (
    LinearModel,
    PiecewiseLinearModel,
    ExponentialModel,
    InterferenceModelSet,
)
from repro.interference.regression import fit_line, r_squared

__all__ = [
    "LinearModel",
    "PiecewiseLinearModel",
    "ExponentialModel",
    "InterferenceModelSet",
    "fit_line",
    "r_squared",
]
