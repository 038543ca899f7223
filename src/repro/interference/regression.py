"""Small regression utilities shared by the model classes.

Fits are closed-form ordinary least squares summed with
:func:`math.fsum`, so a fit is a pure function of its inputs and gives
the same bits in every environment.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple


def fit_line(x: Sequence[float], y: Sequence[float]) -> Tuple[float, float]:
    """Least-squares slope and intercept of ``y ~ a*x + b``.

    Degenerate inputs (fewer than two points, or zero variance in x)
    fall back to a flat line through the mean.
    """
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys):
        raise ValueError("x and y must have equal length")
    if not xs:
        raise ValueError("cannot fit an empty dataset")
    if len(xs) < 2 or max(xs) - min(xs) < 1e-12:
        return 0.0, math.fsum(ys) / len(ys)
    # closed-form ordinary least squares
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((v - mx) ** 2 for v in xs)
    sxy = math.fsum((xs[i] - mx) * (ys[i] - my) for i in range(n))
    slope = sxy / sxx
    return slope, my - slope * mx


def r_squared(y_true: Sequence[float], y_pred: Sequence[float]) -> float:
    """Coefficient of determination (1.0 = perfect fit)."""
    yt = [float(v) for v in y_true]
    yp = [float(v) for v in y_pred]
    if len(yt) != len(yp) or not yt:
        raise ValueError("inputs must be equal-length and non-empty")
    mean = math.fsum(yt) / len(yt)
    ss_res = math.fsum((yt[i] - yp[i]) ** 2 for i in range(len(yt)))
    ss_tot = math.fsum((v - mean) ** 2 for v in yt)
    if ss_tot < 1e-12:
        return 1.0 if ss_res < 1e-12 else 0.0
    return 1.0 - ss_res / ss_tot
