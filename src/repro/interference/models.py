"""Regression model families for interference prediction.

The paper (following MROrchestrator [31] and TRACON [13]) models task
slowdown as:

- **CPU**: linear in collocated CPU utilization (Figure 6(b));
- **I/O**: exponential in collocated I/O rate (Figure 6(c)).

Each model exposes ``fit(x, y)`` / ``predict(x)`` / ``score(x, y)``
(R²); fits are closed-form least squares
(:mod:`repro.interference.regression`).  ``fig06`` fits both to its
measured curves and reports the parameters
(:func:`repro.experiments.fig06_models.fit_curves`).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.interference.regression import fit_line, r_squared


class LinearModel:
    """``y = slope * x + intercept``."""

    def __init__(self) -> None:
        self.slope = 0.0
        self.intercept = 0.0
        self.fitted = False

    def fit(self, x: Sequence[float], y: Sequence[float]) -> "LinearModel":
        self.slope, self.intercept = fit_line(x, y)
        self.fitted = True
        return self

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept

    def score(self, x: Sequence[float], y: Sequence[float]) -> float:
        return r_squared(y, [self.predict(v) for v in x])


class ExponentialModel:
    """``y = a * exp(b * x) + c`` fitted by log-linearization.

    ``c`` (the interference-free floor) is estimated as slightly below
    the minimum observation, after which ``log(y - c)`` is linear in
    ``x`` and ordinary least squares applies.
    """

    def __init__(self) -> None:
        self.a = 0.0
        self.b = 0.0
        self.c = 0.0
        self.fitted = False

    def fit(self, x: Sequence[float], y: Sequence[float]) -> "ExponentialModel":
        xs = list(map(float, x))
        ys = list(map(float, y))
        if len(xs) != len(ys):
            raise ValueError("x and y must have equal length")
        if not xs:
            raise ValueError("cannot fit an empty dataset")
        self.c = min(ys) * 0.95
        log_shifted = [math.log(max(v - self.c, 1e-9)) for v in ys]
        slope, intercept = fit_line(xs, log_shifted)
        self.b = slope
        self.a = math.exp(intercept)
        self.fitted = True
        return self

    def predict(self, x: float) -> float:
        return self.a * math.exp(self.b * x) + self.c

    def score(self, x: Sequence[float], y: Sequence[float]) -> float:
        return r_squared(y, [self.predict(v) for v in x])
