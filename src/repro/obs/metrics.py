"""Metrics registry: counters, gauges and histograms by name.

The registry replaces the scattered per-subsystem tallies (flow byte
counts, DRM action lists, job counters) with one queryable namespace.
Three instrument kinds:

- :class:`Counter` -- monotonically increasing totals
  (``jobs.completed``, ``net.flows.started``).
- :class:`Gauge` -- last-value instruments (per-tracker slot
  occupancy, service latency).  When the registry's ``history`` flag is
  on (enabled together with tracing) every ``set`` also lands in a
  :class:`~repro.sim.trace.Trace`, which the exporters turn into
  Chrome counter tracks.
- :class:`Histogram` -- distributions with p50/p95/p99 summaries
  (attempt durations, migration downtime, SLA latency).

``timeseries(name)`` exposes the registry's backing
:class:`~repro.sim.trace.TraceSet` so existing collectors (utilization
sampling, service latency traces) publish through the same namespace.

Everything here is plain appends and dict lookups -- no randomness, no
event scheduling -- so metrics never perturb simulation determinism.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.trace import Trace, TraceSet


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A last-value instrument, optionally recording history."""

    __slots__ = ("name", "value", "_registry")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.value = 0.0
        self._registry = registry

    def set(self, value: float) -> None:
        self.value = value
        registry = self._registry
        if registry.history:
            registry.traces.record(self.name, registry.now(), value)


class Histogram:
    """A value distribution with percentile summaries.

    Statistics are computed over the *finite* samples only: an empty
    histogram (or one fed nothing but ``nan``/``inf``) summarizes to
    all-zero values rather than NaN, so downstream JSON reports stay
    comparable byte-for-byte and never carry non-numbers.
    """

    __slots__ = ("name", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    def _finite(self) -> List[float]:
        import math

        return [v for v in self.values if math.isfinite(v)]

    @property
    def count(self) -> int:
        return len(self.values)

    def mean(self) -> float:
        values = self._finite()
        return sum(values) / len(values) if values else 0.0

    def min(self) -> float:
        values = self._finite()
        return min(values) if values else 0.0

    def max(self) -> float:
        values = self._finite()
        return max(values) if values else 0.0

    def percentile(self, q: float) -> float:
        from repro.sim.trace import percentile

        return percentile(self._finite(), q)

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "min": self.min(),
            "p10": self.percentile(10.0),
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
            "max": self.max(),
        }


class MetricsRegistry:
    """All instruments of one simulation, by hierarchical name."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        # imported here so the obs package stays import-cycle-free with
        # repro.sim (the engine imports us at module level)
        from repro.sim.trace import TraceSet

        self.now: Callable[[], float] = clock or (lambda: 0.0)
        #: when True, gauge updates also record into :attr:`traces`
        self.history = False
        self.traces: "TraceSet" = TraceSet()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # instrument accessors (create on first use)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name, self)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def timeseries(self, name: str) -> "Trace":
        """A named :class:`Trace` in the registry's shared namespace."""
        return self.traces.get(name)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, float]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def gauges(self) -> Dict[str, float]:
        return {name: g.value for name, g in sorted(self._gauges.items())}

    def histograms(self) -> Dict[str, Histogram]:
        return dict(sorted(self._histograms.items()))

    def snapshot(self) -> dict:
        """Machine-readable dump of every instrument (JSON-friendly).

        Key ordering is stable and documented: the four sections appear
        in the fixed order ``counters``, ``gauges``, ``histograms``,
        ``series``, and within each section instrument names are sorted
        lexicographically (codepoint order).  Two snapshots of identical
        state therefore serialize byte-identically -- with or without
        ``json.dumps(..., sort_keys=True)``.
        """
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": {
                name: hist.summary() for name, hist in sorted(self._histograms.items())
            },
            "series": {
                name: len(self.traces[name]) for name in self.traces.names()
            },
        }
