"""Per-layer self time and counts, measured from outside the simulator.

A :class:`LayerTracer` patches a fixed set of public entry points for the
length of one traced repetition and restores them afterwards.  Every
patched call is a *span* charged to a layer (a ``repro`` module or
package, named without the ``repro.`` prefix).  A span's self time is its
duration minus the time of the spans nested inside it, so the self times
of all layers plus the time outside every span add up to the traced wall
time exactly.

Patched entry points:

- ``Simulator.run`` (the dispatch loop), ``schedule``, ``schedule_at``,
  ``call_every`` and ``Event.cancel`` -- all ``sim.engine``.  Every
  callback handed to the scheduling calls is wrapped so that, when the
  engine fires it, it runs as a span of the callback's own module.
  ``call_every`` wraps the periodic callback itself, not the engine's
  recurrence closure, so DRM, IPS, speculation and pool ticks are billed
  to their modules rather than to ``sim.engine``.
- ``NetworkFabric.start_flow``, ``cancel_flow``, ``begin_batch`` and
  ``end_batch``, and the module-level ``maxmin_fill`` and
  ``maxmin_flow_rates_vec`` -- ``sim.network``.  Flow completion
  callbacks are wrapped like scheduled ones: the fabric calls them
  directly, and their work belongs to the module that asked for the flow.
- ``ResourcePool.add`` -- ``sim.pool``, with its completion callback
  wrapped the same way; ``ExecutionContext.run_cpu``/``run_disk`` get
  their completion callbacks wrapped too (no span of their own).
- ``VirtualMachine.refresh_entries`` (re-applying a VM's caps, weights
  and efficiencies to its in-flight work) -- ``virt``.
- ``NameNode.choose_targets`` and ``HDFS.preload_file`` -- ``hdfs``.
- ``JobTracker.submit`` -- ``mapreduce.jobtracker``.
- ``Cluster.native``/``virtual``/``hybrid`` and ``MapReduceCluster`` --
  ``cluster``.
- ``PhaseOneScheduler.place_batch`` -- ``core.placement``.

Wrapping changes which Python function object the engine calls, never
what runs or in which order, so traced and untraced repetitions produce
byte-identical results; the benchmark checks that on every traced run.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.sim.network as network
from repro.cluster.cluster import Cluster
from repro.cluster.machine import ExecutionContext
from repro.core.placement import PhaseOneScheduler
from repro.hdfs.filesystem import HDFS
from repro.hdfs.namenode import NameNode
from repro.mapreduce.cluster import MapReduceCluster
from repro.mapreduce.jobtracker import JobTracker
from repro.obs.capture import MetricsCapture
from repro.sim.engine import Event, Simulator
from repro.sim.network import NetworkFabric
from repro.sim.pool import ResourcePool
from repro.virt.vm import VirtualMachine

#: layers reported by name.  Spans of any other module (experiment
#: drivers, TaskTrackers, energy meters...) are still timed, under their
#: own module name, and are reported together as ``unattributed_s``.
LAYERS = (
    "sim.engine",
    "sim.network",
    "sim.pool",
    "virt",
    "interactive",
    "core.drm",
    "core.ips",
    "core.placement",
    "mapreduce.jobtracker",
    "mapreduce.task",
    "hdfs",
    "cluster",
)

#: layer-specific metrics beyond ``<layer>.self_s`` and ``<layer>.events``
_EXTRA_METRICS = (
    ("sim.engine.schedules", "count"),
    ("sim.engine.cancels", "count"),
    ("sim.engine.us_per_event", "us"),
    ("sim.network.flows_started", "count"),
    ("sim.network.flows_cancelled", "count"),
    ("sim.network.fill_calls", "count"),
    ("sim.network.fill_vec_calls", "count"),
    ("sim.network.fill_s", "s"),
    ("sim.network.fill_flows_max", "count"),
    ("virt.migrations", "count"),
    ("core.placement.calls", "count"),
    ("mapreduce.jobtracker.attempts_launched", "count"),
    ("mapreduce.jobtracker.useful_attempt_ratio", "ratio"),
    ("hdfs.choose_targets_calls", "count"),
    ("hdfs.choose_targets_s", "s"),
    ("hdfs.preload_s", "s"),
    ("cluster.build_s", "s"),
    ("cluster.hosts", "count"),
    ("unattributed_s", "s"),
)

#: every per-layer metric the traced pass reports, in report order, with
#: its unit (``trace.*`` entries are filled in by the runner, which also
#: times the untraced repetitions they compare against)
PER_LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    tuple(
        item
        for layer in LAYERS
        for item in ((f"{layer}.self_s", "s"), (f"{layer}.events", "count"))
    )
    + _EXTRA_METRICS
    + (("trace.wall_s", "s"), ("trace.overhead_pct", "%"))
)


@functools.lru_cache(maxsize=None)
def _layer_of_module(module: str) -> str:
    name = module[len("repro."):] if module.startswith("repro.") else module
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    return name


def _module_of(callback: Callable) -> str:
    """Defining module of a callback.

    Bound methods report their function's module; ``functools.partial``
    objects have no ``__module__`` and fall back to the wrapped function.
    """
    module = getattr(callback, "__module__", None)
    if module is None:
        module = getattr(getattr(callback, "func", None), "__module__", None)
    return module or "unknown"


def layer_of(callback: Callable) -> str:
    """Layer a callback is charged to: its defining module's layer."""
    return _layer_of_module(_module_of(callback))


class LayerTracer:
    """Span bookkeeping for one traced region; see the module docstring."""

    def __init__(self) -> None:
        #: layer -> seconds inside its spans but outside nested spans
        self.self_s: Dict[str, float] = defaultdict(float)
        #: layer -> scheduled callbacks of that layer the engine fired
        self.events: Dict[str, int] = defaultdict(int)
        #: layer-specific counts, inclusive seconds and maxima
        self.counts: Dict[str, float] = defaultdict(int)
        #: simulator metric counters summed over the traced region
        self.counters: Dict[str, float] = {}
        self.wall_s = 0.0
        #: part of the wall outside every span
        self.root_self_s = 0.0
        #: child-span seconds of each open span; the bottom entry is the
        #: traced region itself
        self._stack: List[float] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._last_elapsed = 0.0
        self._in_scheduler = False
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _span(self, layer: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        stack = self._stack
        stack.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self.self_s[layer] += elapsed - stack.pop()
            stack[-1] += elapsed
            self._last_elapsed = elapsed

    def _timed(self, key: str, layer: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """A span that also adds its duration to ``counts[key]``.

        Only the outermost of nested calls sharing ``key`` is added, so
        inclusive times never count a recursive call twice.
        """
        depth = self._depth
        depth[key] += 1
        try:
            return self._span(layer, fn, *args, **kwargs)
        finally:
            depth[key] -= 1
            if not depth[key]:
                self.counts[key] += self._last_elapsed

    def _dispatcher(self, callback: Callable, count_event: bool) -> Callable:
        """Wrap ``callback`` so that calling it is a span of its layer."""
        layer = layer_of(callback)
        span = self._span
        events = self.events

        if count_event:
            def dispatch(*args: Any) -> Any:
                events[layer] += 1
                return span(layer, callback, *args)
        else:
            def dispatch(*args: Any) -> Any:
                return span(layer, callback, *args)

        # a wrapper that is handed on (pool entries re-added after a VM
        # migration) must keep resolving to the callback's layer
        dispatch.__module__ = _module_of(callback)
        return dispatch

    # ------------------------------------------------------------------
    # the traced region
    # ------------------------------------------------------------------
    @contextmanager
    def traced(self) -> Iterator["LayerTracer"]:
        """Patch the entry points, time the body, restore everything."""
        capture = MetricsCapture()
        self._install()
        self._stack = [0.0]
        try:
            with capture:
                start = perf_counter()
                try:
                    yield self
                finally:
                    self.wall_s = perf_counter() - start
        finally:
            self._uninstall()
        self.root_self_s = self.wall_s - self._stack[0]
        self.counters = capture.combined_snapshot()["counters"]

    def _patch(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        original = vars(owner)[name]
        self._patched.append((owner, name, original))
        setattr(owner, name, make(original))

    def _uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _spanned(
        self, layer: str, count: Optional[str] = None, timed: Optional[str] = None
    ) -> Callable[[Callable], Callable]:
        """Patch factory: run the original as a span of ``layer``.

        ``count`` names a counter bumped per call; ``timed`` names an
        inclusive-seconds total (see :meth:`_timed`).  The wrapper is a
        plain function, so it binds as a method.
        """
        def make(orig: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if count is not None:
                    self.counts[count] += 1
                if timed is not None:
                    return self._timed(timed, layer, orig, *args, **kwargs)
                return self._span(layer, orig, *args, **kwargs)
            return wrapper
        return make

    def _install(self) -> None:
        span, timed, counts = self._span, self._timed, self.counts
        dispatcher, spanned = self._dispatcher, self._spanned
        tracer = self

        # -- sim.engine ---------------------------------------------------
        def scheduling(orig: Callable) -> Callable:
            # schedule_at and call_every call schedule internally; only
            # the outermost call is counted and wraps the callback, so
            # the recurrence closure of call_every stays unwrapped
            def wrapper(sim, when, callback, *args, **kwargs):
                if tracer._in_scheduler:
                    return orig(sim, when, callback, *args, **kwargs)
                counts["sim.engine.schedules"] += 1
                tracer._in_scheduler = True
                try:
                    return span(
                        "sim.engine", orig, sim, when,
                        dispatcher(callback, True), *args, **kwargs,
                    )
                finally:
                    tracer._in_scheduler = False
            return wrapper

        def run(orig: Callable) -> Callable:
            def wrapper(sim, *args, **kwargs):
                before = sim.events_processed
                try:
                    return span("sim.engine", orig, sim, *args, **kwargs)
                finally:
                    counts["sim.engine.events"] += sim.events_processed - before
            return wrapper

        for name in ("schedule", "schedule_at", "call_every"):
            self._patch(Simulator, name, scheduling)
        self._patch(Simulator, "run", run)
        self._patch(Event, "cancel", spanned("sim.engine", count="sim.engine.cancels"))

        # -- sim.network --------------------------------------------------
        def start_flow(orig: Callable) -> Callable:
            def wrapper(fabric, src, dst, mb, on_complete=None, *args, **kwargs):
                counts["sim.network.flows_started"] += 1
                if on_complete is not None:
                    on_complete = dispatcher(on_complete, False)
                return span(
                    "sim.network", orig, fabric, src, dst, mb, on_complete,
                    *args, **kwargs,
                )
            return wrapper

        def cancel_flow(orig: Callable) -> Callable:
            def wrapper(fabric, flow):
                if not flow.done:
                    counts["sim.network.flows_cancelled"] += 1
                return span("sim.network", orig, fabric, flow)
            return wrapper

        def fill(orig: Callable) -> Callable:
            def wrapper(flows, links):
                counts["sim.network.fill_calls"] += 1
                if len(flows) > counts["sim.network.fill_flows_max"]:
                    counts["sim.network.fill_flows_max"] = len(flows)
                return timed("sim.network.fill_s", "sim.network", orig, flows, links)
            return wrapper

        self._patch(NetworkFabric, "start_flow", start_flow)
        self._patch(NetworkFabric, "cancel_flow", cancel_flow)
        for name in ("begin_batch", "end_batch"):
            self._patch(NetworkFabric, name, spanned("sim.network"))
        self._patch(network, "maxmin_fill", fill)
        self._patch(
            network, "maxmin_flow_rates_vec",
            spanned("sim.network", count="sim.network.fill_vec_calls"),
        )

        # -- sim.pool -----------------------------------------------------
        def pool_add(orig: Callable) -> Callable:
            def wrapper(pool, work, on_complete=None, *args, **kwargs):
                if on_complete is not None:
                    on_complete = dispatcher(on_complete, False)
                return span("sim.pool", orig, pool, work, on_complete, *args, **kwargs)
            return wrapper

        self._patch(ResourcePool, "add", pool_add)

        # execution contexts hand pools a closure of their own that calls
        # the caller's callback; wrap that callback so its work is not
        # billed to the cluster layer
        def context_work(orig: Callable) -> Callable:
            def wrapper(context, amount, on_complete=None, *args, **kwargs):
                if on_complete is not None:
                    on_complete = dispatcher(on_complete, False)
                return orig(context, amount, on_complete, *args, **kwargs)
            return wrapper

        for name in ("run_cpu", "run_disk"):
            self._patch(ExecutionContext, name, context_work)

        # -- virt, hdfs, mapreduce.jobtracker, core.placement ---------------
        self._patch(VirtualMachine, "refresh_entries", spanned("virt"))
        self._patch(
            NameNode, "choose_targets",
            spanned("hdfs", count="hdfs.choose_targets_calls", timed="hdfs.choose_targets_s"),
        )
        self._patch(HDFS, "preload_file", spanned("hdfs", timed="hdfs.preload_s"))
        self._patch(JobTracker, "submit", spanned("mapreduce.jobtracker"))
        self._patch(
            PhaseOneScheduler, "place_batch",
            spanned("core.placement", count="core.placement.calls"),
        )

        # -- cluster ------------------------------------------------------
        def build(orig: classmethod) -> classmethod:
            func = orig.__func__

            def wrapper(cls, *args, **kwargs):
                cluster = timed("cluster.build_s", "cluster", func, cls, *args, **kwargs)
                counts["cluster.hosts"] += len(cluster.all_contexts())
                return cluster
            return classmethod(wrapper)

        for name in ("native", "virtual", "hybrid"):
            self._patch(Cluster, name, build)
        self._patch(MapReduceCluster, "__init__", spanned("cluster", timed="cluster.build_s"))

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------
    def unattributed_s(self) -> float:
        """Wall time outside every named layer's self time."""
        other = sum(s for layer, s in self.self_s.items() if layer not in LAYERS)
        return self.root_self_s + other

    def other_self_s(self) -> Dict[str, float]:
        """Self time of the unnamed layers that make up ``unattributed_s``."""
        return {
            layer: s for layer, s in sorted(self.self_s.items())
            if layer not in LAYERS
        }

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric except the runner's ``trace.*`` ones."""
        counts = self.counts
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
            out[f"{layer}.events"] = self.events.get(layer, 0)
        # the engine dispatches every event, whoever it is charged to
        events = counts["sim.engine.events"]
        out["sim.engine.events"] = events
        out["sim.engine.us_per_event"] = (
            1e6 * out["sim.engine.self_s"] / events if events else 0.0
        )
        launched = self.counters.get("attempts.launched", 0)
        completed = self.counters.get("attempts.completed", 0)
        out["mapreduce.jobtracker.attempts_launched"] = int(launched)
        out["mapreduce.jobtracker.useful_attempt_ratio"] = (
            completed / launched if launched else 0.0
        )
        out["virt.migrations"] = int(self.counters.get("migrations.started", 0))
        out["unattributed_s"] = self.unattributed_s()
        for name, _unit in _EXTRA_METRICS:
            if name not in out:
                out[name] = counts[name]
        return out
