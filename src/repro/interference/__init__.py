"""Statistical interference and performance models (Section III-B).

Regression models of task run-time performance as a function of
collocated load: linear for CPU, exponential for I/O -- the model
families the paper adopts from MROrchestrator [31] and TRACON [13] and
fits in Figures 6(b) and 6(c).  ``fig06`` fits them to its measured
curves; Phase I fits its profile lines with :func:`fit_line`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "LinearModel",
    "ExponentialModel",
    "fit_line",
    "r_squared",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.interference.models": ("LinearModel", "ExponentialModel"),
    "repro.interference.regression": ("fit_line", "r_squared"),
})
