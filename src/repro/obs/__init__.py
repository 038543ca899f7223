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
- ``sim.obs.decisions`` -- the decision log: one :class:`Decision` per
  Phase I placement, DRM actuation and IPS mitigation, always on,
  appended by :meth:`Observability.decide`, which also derives the
  loop's counter and (when tracing) its instant.

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

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from repro._lazy import lazy_exports
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, NullTracer, Span, Tracer

TracerLike = Union[Tracer, NullTracer]


@dataclass(frozen=True)
class Decision:
    """One decision of a HybridMR control loop.

    ``loop`` is ``"phase1"`` (``action`` is the side, ``target`` the
    job), ``"drm"`` (a Performance Balancer kind, on a VM) or ``"ips"``
    (``throttle``/``pause``/``migrate``/``release``, on a VM);
    ``inputs`` holds what the loop consulted or set.
    """

    time: float
    loop: str
    action: str
    target: str
    inputs: Dict[str, object]


class Observability:
    """Tracer + metrics registry + decision log on one virtual clock."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        self.metrics = MetricsRegistry(self.clock)
        self.tracer: TracerLike = NULL_TRACER
        self.decisions: List[Decision] = []

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

    def decide(self, loop: str, action: str, target: str, **inputs: object) -> None:
        """Log one decision, count it as ``<loop>.actions.<action>`` and,
        when tracing, mark it with a ``decision`` instant on the loop's
        track."""
        self.decisions.append(Decision(self.clock(), loop, action, target, inputs))
        self.metrics.counter(f"{loop}.actions.{action}").inc()
        if self.tracer.enabled:
            self.tracer.instant(
                f"{loop}.{action}:{target}", category="decision", track=loop,
                **inputs,
            )


__all__ = [
    "Observability",
    "Decision",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "NULL_SPAN",
    "Span",
    "MetricsRegistry",
    "MetricsCapture",
    "SimCapture",
    "active_sim_capture",
    "Counter",
    "Gauge",
    "Histogram",
    "LiveSampler",
    "JsonlFrameSink",
    "MemorySink",
    "Profiler",
]

# the engine needs only the names above; captures, the live sampler and
# the profiler load when a run asks for them
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.capture": ("MetricsCapture", "SimCapture", "active_sim_capture"),
    "repro.obs.live": ("LiveSampler", "JsonlFrameSink", "MemorySink"),
    "repro.obs.prof": ("Profiler",),
})
