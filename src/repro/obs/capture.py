"""Process-local capture of the simulators built in a code region.

Sweep cells (:mod:`repro.sweep`) and the bench passes
(:mod:`repro.obs.bench`) need the observability data of every
:class:`~repro.sim.engine.Simulator` an experiment builds internally,
without threading an argument through each figure function.  A
:class:`SimCapture` does that by interception: while one is active (as
a context manager), every simulator constructed in this process
registers itself with it, and :meth:`SimCapture.combined_snapshot`
merges their metrics registries afterwards -- counters summed,
histogram samples pooled.

Captures nest and restore their predecessor on exit, so two cells
executed back to back in the same process (the sweep runner's inline
and cache-warm paths) can never see each other's simulators.  The
active capture is process-local state; worker processes each start with
none active and install their own around the cell they execute.
"""

from __future__ import annotations

from typing import Dict, List, Optional

_ACTIVE_SIM: Optional["SimCapture"] = None


class SimCapture:
    """Collects every :class:`~repro.sim.engine.Simulator` built while
    active, optionally turning on tracing and/or attaching a profiler.

    The sweep runner and the bench passes (:mod:`repro.obs.bench`)
    capture every cell this way: the figure functions build their
    simulators internally, so the only seam is construction-time
    interception.  Tracing and profiling
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

    def combined_snapshot(self) -> dict:
        """One JSON-friendly snapshot merging every captured simulator's
        metrics registry.

        Counters with the same name are summed, histogram samples are
        pooled before summarizing.  Gauges are last-value instruments of
        one simulation clock and do not merge meaningfully, so they are
        omitted.
        """
        from repro.obs.metrics import Histogram

        counters: Dict[str, float] = {}
        pooled: Dict[str, List[float]] = {}
        for sim in self.simulators:
            registry = sim.obs.metrics
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
            "simulators": len(self.simulators),
            "counters": dict(sorted(counters.items())),
            "histograms": histograms,
        }

    def combined_blame(self) -> dict:
        """One blame report over every captured (traced) simulator."""
        from repro.obs.critpath import build_blame, merge_blame
        from repro.obs.export import collect_events

        return merge_blame(
            [build_blame(collect_events(s.obs)) for s in self.simulators]
        )


#: the name perfbench's layer tracer imports for its metrics capture
MetricsCapture = SimCapture


def active_sim_capture() -> Optional[SimCapture]:
    return _ACTIVE_SIM


def register_simulator(sim) -> None:
    """Hand a freshly built simulator to the active capture, if any."""
    if _ACTIVE_SIM is not None:
        _ACTIVE_SIM.add(sim)
