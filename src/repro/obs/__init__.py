"""Cross-cutting observability: span tracing, metrics, exporters.

Every :class:`~repro.sim.engine.Simulator` owns an
:class:`Observability` handle (``sim.obs``) bundling:

- ``sim.obs.tracer`` -- a virtual-clock span tracer
  (:mod:`repro.obs.tracer`).  Disabled by default: the shared
  :data:`~repro.obs.tracer.NULL_TRACER` makes every instrumentation
  hook a no-op, and hot paths guard on ``tracer.enabled`` so the
  disabled overhead is negligible.
- ``sim.obs.metrics`` -- a :class:`~repro.obs.metrics.MetricsRegistry`
  of counters, gauges and histograms, always on (plain dict appends).

Call :meth:`Observability.enable_tracing` (or pass ``--trace`` to
``repro run``) to record spans; :mod:`repro.obs.export` then renders
Chrome trace-event JSON, a JSONL structured log, and a text summary.
:mod:`repro.obs.critpath` turns a traced run into a per-job
critical-path blame breakdown, and :mod:`repro.obs.bench` benchmarks
the simulator itself (``repro bench``) with a regression gate; its
profiler pass uses :mod:`repro.obs.prof` to attribute wall-clock
self/cumulative time and events per subsystem and callback, with
flamegraph export.

Instrumentation only *records* -- it never draws randomness or
schedules events -- so identical seeds produce byte-identical
experiment results with tracing on or off.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.obs.capture import (
    MetricsCapture,
    SimCapture,
    active_capture,
    active_sim_capture,
)
from repro.obs.live import JsonlFrameSink, LiveSampler, MemorySink
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.prof import Profiler
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, NullTracer, Span, Tracer

TracerLike = Union[Tracer, NullTracer]


class Observability:
    """Tracer + metrics registry sharing one virtual clock."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        self.metrics = MetricsRegistry(self.clock)
        self.tracer: TracerLike = NULL_TRACER

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled

    def enable_tracing(self) -> Tracer:
        """Swap in a recording tracer (idempotent).

        Also turns on gauge history so per-track counter timelines show
        up in the Chrome trace.
        """
        if not self.tracer.enabled:
            self.tracer = Tracer(self.clock)
        self.metrics.history = True
        assert isinstance(self.tracer, Tracer)
        return self.tracer

    def now(self) -> float:
        return self.clock()


__all__ = [
    "Observability",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "NULL_SPAN",
    "Span",
    "MetricsRegistry",
    "MetricsCapture",
    "SimCapture",
    "active_capture",
    "active_sim_capture",
    "Counter",
    "Gauge",
    "Histogram",
    "LiveSampler",
    "JsonlFrameSink",
    "MemorySink",
    "Profiler",
]
