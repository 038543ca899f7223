"""Deterministic wall-time profiling of the simulator.

A :class:`Profiler` attributes *wall-clock time*, and counts events, per
subsystem.  It hooks the :class:`~repro.sim.engine.Simulator` dispatch
seam: every event callback becomes a timed frame keyed
``module:qualname``, and instrumented internals (the fabric's max-min
fill) and the completion callbacks pools and the fabric call directly
push nested frames, so the profiler maintains a proper frame
stack and can split **self** time (time in a frame excluding its
children) from **cumulative** time.  Self times tile the dispatch wall
clock exactly -- every profiled moment belongs to exactly
one frame's self time -- which is what makes the per-subsystem table
trustworthy: it sums to the total dispatch wall time by construction.

On top of the stack the profiler records:

- **engine-health gauges**, sampled every ``gauge_sample_every`` events:
  heap depth, live events, tombstones, tombstone ratio; plus the
  fabric's dirty-link rebalance component sizes (gauges are pushed by
  the instrumented subsystems);
- **phase-bucketed memory snapshots** (opt-in): with ``tracemalloc``
  tracing, ``(events_processed, current, peak)`` samples are collected
  on the gauge cadence and bucketed into event-count deciles
  ``p0..p9`` in the report, a memory-over-run profile;
- **aggregated stacks** for flamegraphs, exported as collapsed-stack
  text (flamegraph.pl, inferno, https://speedscope.app).

The house invariant holds here as everywhere in ``repro.obs``: the
profiler only *observes*.  It draws no randomness, schedules no events
and mutates nothing it measures, so a same-seed run with profiling on
-- with tracing and ``tracemalloc`` stacked on top -- produces
byte-identical results to an unprofiled run.  ``repro bench``
(:mod:`repro.obs.bench`) runs every cell's profiler pass against the
digest of its bare timing pass, stores :meth:`Profiler.snapshot` under
the cell's ``profile``, and feeds its report to the exporters and
:func:`format_profile` below; ``tests/test_prof.py`` pins the
invariant.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

#: memory buckets in a report: event-count deciles of the run
MEMORY_PHASES = 10

#: tracemalloc samples kept; past it every other one is dropped
MAX_MEMORY_SAMPLES = 2048

#: callbacks in a snapshot, hottest by self time first
TOP_CALLBACKS = 40


def _r(value: float, digits: int = 9) -> float:
    return round(float(value), digits)


class Profiler:
    """Frame-stack wall-time profiler for one (or more) simulators.

    Root frames are keyed by ``module:qualname``, so the callback table
    and flamegraph resolve individual callbacks; the subsystem table
    rolls them up per module.  Nested frames (:meth:`push`/:meth:`pop`)
    fire on fabric fills and on the completion callbacks that pools and
    the fabric call directly.  The default gauge cadence of 16 events still samples
    the smallest bench cells (a few hundred events over several
    simulators).
    """

    def __init__(
        self,
        gauge_sample_every: int = 16,
        trace_memory: bool = False,
        clock=time.perf_counter,
    ) -> None:
        if gauge_sample_every < 1:
            raise ValueError("gauge_sample_every must be >= 1")
        self.gauge_sample_every = gauge_sample_every
        self.trace_memory = trace_memory
        self.clock = clock
        #: root event frames closed so far
        self.events = 0
        #: wall time inside event dispatch (sum of root frame times)
        self.dispatch_wall_s = 0.0
        #: wall time in frames pushed outside dispatch (setup work)
        self.outside_wall_s = 0.0
        # frame stack entries: [name, subsystem, start, child_s]
        self._stack: List[list] = []
        # subsystem -> [events, self_s, cum_s]
        self._subsystems: Dict[str, list] = {}
        # root frame name -> [count, self_s, cum_s]
        self._callbacks: Dict[str, list] = {}
        # nested frame name -> [count, self_s, cum_s]
        self._frames: Dict[str, list] = {}
        # stack path tuple -> [count, self_s]  (flamegraph source)
        self._stacks: Dict[Tuple[str, ...], list] = {}
        # gauge name -> [n, sum, min, max, last]
        self._gauges: Dict[str, list] = {}
        # (events_at_sample, current_bytes, peak_bytes), thinned
        self._memory: List[Tuple[int, int, int]] = []
        self._memory_stride = 1
        self._memory_tick = 0

    # -- the frame stack ------------------------------------------------
    def begin_event(self, module: str, qualname: str) -> None:
        """Open the root frame for one dispatched event callback."""
        self._stack.append([f"{module}:{qualname}", module, self.clock(), 0.0])

    def end_event(self) -> None:
        """Close the event frame opened by :meth:`begin_event`."""
        name, subsystem, elapsed, self_s = self._close_frame()
        self.events += 1
        self.dispatch_wall_s += elapsed
        entry = self._subsystems[subsystem]
        entry[0] += 1
        entry[2] += elapsed
        cb = self._callbacks.get(name)
        if cb is None:
            self._callbacks[name] = [1, self_s, elapsed]
        else:
            cb[0] += 1
            cb[1] += self_s
            cb[2] += elapsed

    def push(self, name: str, subsystem: Optional[str] = None) -> None:
        """Open a nested frame (an instrumented internal operation).

        ``subsystem`` says who the frame's *self* time belongs to; it
        defaults to the enclosing frame's subsystem, but instrumented
        seams that run on behalf of another module (the fabric's fill
        triggered from a task callback) should pass their own.
        """
        if subsystem is None:
            subsystem = self._stack[-1][1] if self._stack else name
        self._stack.append([name, subsystem, self.clock(), 0.0])

    def pop(self) -> float:
        """Close the innermost :meth:`push` frame; returns its elapsed."""
        name, _subsystem, elapsed, self_s = self._close_frame()
        entry = self._frames.get(name)
        if entry is None:
            self._frames[name] = [1, self_s, elapsed]
        else:
            entry[0] += 1
            entry[1] += self_s
            entry[2] += elapsed
        if not self._stack:
            self.outside_wall_s += elapsed
        return elapsed

    @contextmanager
    def frame(self, name: str, subsystem: Optional[str] = None):
        """``with prof.frame("net.maxmin_fill"): ...`` sugar."""
        self.push(name, subsystem)
        try:
            yield self
        finally:
            self.pop()

    def _close_frame(self) -> Tuple[str, str, float, float]:
        name, subsystem, start, child_s = self._stack.pop()
        elapsed = self.clock() - start
        self_s = elapsed - child_s
        if self_s < 0.0:  # clock granularity underflow
            self_s = 0.0
        if self._stack:
            self._stack[-1][3] += elapsed
            path = tuple(f[0] for f in self._stack) + (name,)
        else:
            path = (name,)
        entry = self._subsystems.get(subsystem)
        if entry is None:
            self._subsystems[subsystem] = [0, self_s, 0.0]
        else:
            entry[1] += self_s
        node = self._stacks.get(path)
        if node is None:
            self._stacks[path] = [1, self_s]
        else:
            node[0] += 1
            node[1] += self_s
        return name, subsystem, elapsed, self_s

    # -- gauges, engine health, memory ---------------------------------
    def gauge(self, name: str, value: float) -> None:
        """Record one sample of a health gauge (n/sum/min/max/last)."""
        value = float(value)
        entry = self._gauges.get(name)
        if entry is None:
            self._gauges[name] = [1, value, value, value, value]
        else:
            entry[0] += 1
            entry[1] += value
            if value < entry[2]:
                entry[2] = value
            if value > entry[3]:
                entry[3] = value
            entry[4] = value

    def sample_engine(self, sim) -> None:
        """Engine-health sample; the dispatch loop calls this on the
        gauge cadence (reads only, never mutates).  Queue internals come
        from ``Simulator.queue_stats()``."""
        stats = sim.queue_stats()
        depth = stats["depth"]
        tombstones = stats["tombstones"]
        self.gauge("engine.queue_depth", depth)
        self.gauge("engine.live_events", stats["live"])
        self.gauge("engine.tombstones", tombstones)
        self.gauge(
            "engine.tombstone_ratio", tombstones / depth if depth else 0.0
        )
        if self.trace_memory:
            self._sample_memory()

    def _sample_memory(self) -> None:
        if not tracemalloc.is_tracing():
            return
        self._memory_tick += 1
        if self._memory_tick % self._memory_stride:
            return
        current, peak = tracemalloc.get_traced_memory()
        self._memory.append((self.events, current, peak))
        if len(self._memory) >= MAX_MEMORY_SAMPLES:
            # geometric thinning keeps the sample bounded and uniform
            self._memory = self._memory[::2]
            self._memory_stride *= 2

    # -- reporting ------------------------------------------------------
    @property
    def attributed_wall_s(self) -> float:
        return self.dispatch_wall_s + self.outside_wall_s

    def subsystem_table(self) -> Dict[str, dict]:
        total = self.attributed_wall_s or 1.0
        out = {}
        for name in sorted(self._subsystems):
            events, self_s, cum_s = self._subsystems[name]
            out[name] = {
                "events": events,
                "self_s": _r(self_s),
                "cum_s": _r(cum_s),
                "self_pct": _r(100.0 * self_s / total, 4),
            }
        return out

    def stack_table(self) -> List[dict]:
        return [
            {"stack": list(path), "count": entry[0], "self_s": _r(entry[1])}
            for path, entry in sorted(self._stacks.items())
        ]

    def memory_report(self) -> Optional[dict]:
        """Event-decile ("phase") buckets of the tracemalloc samples."""
        if not self.trace_memory:
            return None
        samples = self._memory
        if not samples:
            return {"samples": 0, "peak_kb": 0.0, "phases": []}
        span = max(e for e, _, _ in samples) or 1
        buckets: List[List[Tuple[int, int]]] = [
            [] for _ in range(MEMORY_PHASES)
        ]
        for events_at, current, peak in samples:
            idx = min(
                MEMORY_PHASES - 1,
                (max(0, events_at - 1) * MEMORY_PHASES) // span,
            )
            buckets[idx].append((current, peak))
        phases = []
        for i, bucket in enumerate(buckets):
            if not bucket:
                continue
            currents = [c for c, _ in bucket]
            phases.append({
                "phase": f"p{i}",
                "events_hi": ((i + 1) * span) // MEMORY_PHASES,
                "samples": len(bucket),
                "current_kb_mean": _r(
                    sum(currents) / len(currents) / 1024.0, 3
                ),
                "current_kb_max": _r(max(currents) / 1024.0, 3),
                "peak_kb_max": _r(max(p for _, p in bucket) / 1024.0, 3),
            })
        return {
            "samples": len(samples),
            "peak_kb": _r(max(p for _, _, p in samples) / 1024.0, 3),
            "phases": phases,
        }

    def snapshot(self) -> dict:
        """A bench cell's ``profile`` (JSON-friendly, rounded)."""
        callbacks = sorted(
            self._callbacks.items(), key=lambda kv: (-kv[1][1], kv[0])
        )[:TOP_CALLBACKS]
        return {
            "events": self.events,
            "dispatch_wall_s": _r(self.dispatch_wall_s),
            "outside_wall_s": _r(self.outside_wall_s),
            "subsystems": self.subsystem_table(),
            "callbacks": [
                {
                    "name": name,
                    "events": entry[0],
                    "self_s": _r(entry[1]),
                    "cum_s": _r(entry[2]),
                }
                for name, entry in callbacks
            ],
            "frames": {
                name: {
                    "count": entry[0],
                    "self_s": _r(entry[1]),
                    "cum_s": _r(entry[2]),
                }
                for name, entry in sorted(self._frames.items())
            },
            "gauges": {
                name: {
                    "n": entry[0],
                    "mean": _r(entry[1] / entry[0], 6),
                    "min": _r(entry[2], 6),
                    "max": _r(entry[3], 6),
                    "last": _r(entry[4], 6),
                }
                for name, entry in sorted(self._gauges.items())
            },
            "memory": self.memory_report(),
            "stacks": self.stack_table(),
        }


# ----------------------------------------------------------------------
# flamegraph exports (of a ``repro.bench/2`` report)
# ----------------------------------------------------------------------
def collapsed_stacks(report: dict) -> str:
    """Collapsed-stack text (``cell;a;b <usecs>``): input to
    flamegraph.pl and inferno, and a file https://speedscope.app opens.

    Every stack is rooted at its bench cell's name, so one file holds
    all cells side by side.
    """
    lines = []
    for name, cell in sorted(report["cells"].items()):
        for entry in cell["profile"]["stacks"]:
            usec = int(round(entry["self_s"] * 1e6))
            if usec > 0:
                lines.append(";".join([name] + entry["stack"]) + f" {usec}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_collapsed(path: str, report: dict) -> int:
    """Write the collapsed-stack file; returns the line count."""
    text = collapsed_stacks(report)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(text.splitlines())


# ----------------------------------------------------------------------
# text rendering
# ----------------------------------------------------------------------
def format_profile(cell: dict, top: int = 12) -> str:
    """Human-readable profile of one bench cell: subsystems, callbacks,
    instrumented internals, engine health and memory."""
    from repro.metrics.report import format_table

    profile = cell["profile"]
    lines = [
        f"profile {cell['figure']} -- {profile['events']} events, dispatch "
        f"{profile['dispatch_wall_s']:.3f}s of {cell['wall_profiled_s']:.3f}s "
        f"profiled wall ({cell['simulators']} simulators), digests "
        + ("consistent" if cell["consistent"] else "PERTURBED")
    ]
    rows = [
        [name, s["events"], round(s["self_s"], 4), round(s["self_pct"], 1),
         round(s["cum_s"], 4)]
        for name, s in sorted(
            profile["subsystems"].items(),
            key=lambda kv: -kv[1]["self_s"],
        )
    ]
    lines.append(format_table(
        ["subsystem", "events", "self_s", "self_%", "cum_s"], rows,
        title="per-subsystem wall time (self sums to dispatch wall)",
    ))
    if profile["callbacks"]:
        rows = [
            [c["name"], c["events"], round(c["self_s"], 4),
             round(c["cum_s"], 4)]
            for c in profile["callbacks"][:top]
        ]
        lines.append(format_table(
            ["callback", "events", "self_s", "cum_s"], rows,
            title=f"hottest callbacks (top {min(top, len(rows))} by self)",
        ))
    if profile["frames"]:
        rows = [
            [name, f["count"], round(f["self_s"], 4), round(f["cum_s"], 4)]
            for name, f in sorted(
                profile["frames"].items(), key=lambda kv: -kv[1]["self_s"]
            )
        ]
        lines.append(format_table(
            ["internal frame", "count", "self_s", "cum_s"], rows,
            title="instrumented internals",
        ))
    gauges = profile["gauges"]
    health = []
    for name in ("engine.queue_depth", "engine.tombstone_ratio",
                 "net.rebalance_component_flows", "net.dirty_links"):
        if name in gauges:
            g = gauges[name]
            health.append(
                f"{name} mean {g['mean']:.2f} / max {g['max']:.0f}"
            )
    lines.append("engine health: " + "; ".join(health))
    memory = profile["memory"]
    if memory:
        lines.append(
            f"memory: peak {memory['peak_kb'] / 1024.0:.1f} MB over "
            f"{memory['samples']} samples in {len(memory['phases'])} phases"
        )
    return "\n".join(lines)
