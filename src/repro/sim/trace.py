"""Time-series recording for metrics and experiment output.

A :class:`Trace` is an append-only sequence of ``(time, value)`` samples
with summary statistics; a :class:`TraceSet` is a named collection used
by the metrics layer (one trace per PM utilization, per job, per SLA
probe...).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (``q`` in [0, 100]).

    Matches numpy's default method; returns 0.0 for an empty sequence
    (consistent with the other empty-trace statistics).
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    if not values:
        return 0.0
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


class Trace:
    """An append-only time series."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1] - 1e-9:
            raise ValueError(
                f"trace {self.name!r}: samples must be time-ordered "
                f"({time} < {self.times[-1]})"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(zip(self.times, self.values))

    @property
    def last(self) -> Optional[float]:
        return self.values[-1] if self.values else None

    def mean(self) -> float:
        """Arithmetic mean of samples (0.0 for an empty trace)."""
        if not self.values:
            return 0.0
        return sum(self.values) / len(self.values)

    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile of samples (``q`` in [0, 100])."""
        return percentile(self.values, q)

    def min(self) -> float:
        return min(self.values) if self.values else 0.0

    def window(self, t0: float, t1: float) -> "Trace":
        """Samples with ``t0 <= time <= t1`` as a new trace."""
        out = Trace(self.name)
        for t, v in self:
            if t0 <= t <= t1:
                out.record(t, v)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace({self.name!r}, n={len(self)}, mean={self.mean():.3f})"


class TraceSet:
    """A named collection of traces."""

    def __init__(self) -> None:
        self._traces: Dict[str, Trace] = {}

    def get(self, name: str) -> Trace:
        if name not in self._traces:
            self._traces[name] = Trace(name)
        return self._traces[name]

    def record(self, name: str, time: float, value: float) -> None:
        self.get(name).record(time, value)

    def names(self) -> List[str]:
        return sorted(self._traces)

    def __contains__(self, name: str) -> bool:
        return name in self._traces

    def __getitem__(self, name: str) -> Trace:
        return self._traces[name]

    def __len__(self) -> int:
        return len(self._traces)
