"""Process-local capture of metrics registries created in a code region.

Sweep cells (:mod:`repro.sweep`) need the observability data of every
:class:`~repro.sim.engine.Simulator` an experiment builds internally,
without threading a registry argument through each figure function.  A
:class:`MetricsCapture` does that by interception: while one is active
(as a context manager), every :class:`~repro.obs.MetricsRegistry`
constructed in this process registers itself with it, and
:meth:`MetricsCapture.combined_snapshot` merges them afterwards --
counters summed, histogram samples pooled.

Captures nest and restore their predecessor on exit, so two cells
executed back to back in the same process (the sweep runner's inline
and cache-warm paths) can never see each other's registries.  The
active capture is process-local state; worker processes each start with
none active and install their own around the cell they execute.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry

_ACTIVE: Optional["MetricsCapture"] = None


class MetricsCapture:
    """Collects every registry created while this capture is active."""

    def __init__(self) -> None:
        self.registries: List["MetricsRegistry"] = []
        self._previous: Optional["MetricsCapture"] = None

    def __enter__(self) -> "MetricsCapture":
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self
        return self

    def __exit__(self, *exc) -> bool:
        global _ACTIVE
        _ACTIVE = self._previous
        self._previous = None
        return False

    def add(self, registry: "MetricsRegistry") -> None:
        self.registries.append(registry)

    def combined_snapshot(self) -> dict:
        """One JSON-friendly snapshot merging all captured registries.

        Counters with the same name are summed, histogram samples are
        pooled before summarizing.  Gauges are last-value instruments of
        one simulation clock and do not merge meaningfully, so they are
        omitted.
        """
        from repro.obs.metrics import Histogram

        counters: Dict[str, float] = {}
        pooled: Dict[str, List[float]] = {}
        for registry in self.registries:
            for name, value in registry.counters().items():
                counters[name] = counters.get(name, 0.0) + value
            for name, hist in registry.histograms().items():
                pooled.setdefault(name, []).extend(hist.values)
        histograms: Dict[str, Dict[str, float]] = {}
        for name in sorted(pooled):
            merged = Histogram(name)
            merged.values = pooled[name]
            histograms[name] = merged.summary()
        return {
            "simulators": len(self.registries),
            "counters": dict(sorted(counters.items())),
            "histograms": histograms,
        }


def active_capture() -> Optional[MetricsCapture]:
    return _ACTIVE


def register_registry(registry: "MetricsRegistry") -> None:
    """Hand a freshly built registry to the active capture, if any."""
    if _ACTIVE is not None:
        _ACTIVE.add(registry)


# ----------------------------------------------------------------------
# simulator capture (bench passes and sweep blame)
# ----------------------------------------------------------------------
_ACTIVE_SIM: Optional["SimCapture"] = None


class SimCapture:
    """Collects every :class:`~repro.sim.engine.Simulator` built while
    active, optionally turning on tracing and/or attaching a profiler.

    The bench passes (:mod:`repro.obs.bench`) and the sweep runner's
    blame pass use this the same way cells' metrics are captured: the
    figure functions build their simulators internally, so the only
    seam is construction-time interception.  Tracing and profiling
    cannot perturb results -- recording draws no randomness and
    schedules no events -- which the bench's digest cross-check
    verifies on every cell.  Captures nest and restore their
    predecessor on exit.
    """

    def __init__(self, tracing: bool = False, profiler=None) -> None:
        self.simulators: List[object] = []
        self.tracing = tracing
        #: a :class:`repro.obs.prof.Profiler` shared by every captured
        #: simulator (one frame stack spans the whole cell), or None
        self.profiler = profiler
        self._previous: Optional["SimCapture"] = None

    def __enter__(self) -> "SimCapture":
        global _ACTIVE_SIM
        self._previous = _ACTIVE_SIM
        _ACTIVE_SIM = self
        return self

    def __exit__(self, *exc) -> bool:
        global _ACTIVE_SIM
        _ACTIVE_SIM = self._previous
        self._previous = None
        return False

    def add(self, sim) -> None:
        self.simulators.append(sim)
        if self.tracing:
            sim.obs.enable_tracing()
        if self.profiler is not None:
            sim.enable_profiling(self.profiler)

    # -- aggregate views over all captured simulators -------------------
    def total_events(self) -> int:
        return sum(s.events_processed for s in self.simulators)

    def total_spans(self) -> int:
        return sum(len(s.obs.tracer) for s in self.simulators)

    def combined_blame(self) -> dict:
        """One blame report over every captured (traced) simulator."""
        from repro.obs.critpath import build_blame, merge_blame
        from repro.obs.export import collect_events

        return merge_blame(
            [build_blame(collect_events(s.obs)) for s in self.simulators]
        )


def active_sim_capture() -> Optional[SimCapture]:
    return _ACTIVE_SIM


def register_simulator(sim) -> None:
    """Hand a freshly built simulator to the active capture, if any."""
    if _ACTIVE_SIM is not None:
        _ACTIVE_SIM.add(sim)
