"""Live telemetry: virtual-clock frame sampling for running simulations.

Everything else in :mod:`repro.obs` is post-mortem -- spans, metrics and
blame are exported after the run finishes.  The :class:`LiveSampler`
closes that gap: on a configurable virtual-time cadence it assembles a
structured **frame** -- per-tier/per-rack utilization, slot occupancy,
scheduler queue depths and pending-task ages, sliding-window SLA latency
percentiles, incremental critical-path blame deltas, and active chaos
fault state -- and pushes it into a bounded ring buffer and any number of
pluggable sinks (JSONL file, callback, in-memory list).

Frames are plain JSON-able dicts with ``type == "frame"`` and schema
:data:`FRAME_SCHEMA`, so a frames file is a valid JSONL event log for
``repro trace`` (and its ``--follow`` tail mode), and ``repro serve``
can replay or follow one into the live dashboard.

Determinism: the sampler only *reads* simulation state.  It draws no
randomness, mutates nothing it observes, and its periodic events carry
the same no-op semantics as the existing collectors, so a same-seed run
with sampling enabled stays byte-identical to one without it (the
``tests/test_live.py`` digest tests pin this).  Keep it that way: a
sampler source must never call into scheduling, pools or RNGs.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence

from repro.metrics.collector import mem_utilization
from repro.obs.export import read_jsonl, read_jsonl_from

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.injector import ChaosInjector
    from repro.cluster.cluster import Cluster
    from repro.interactive.service import InteractiveService
    from repro.mapreduce.cluster import MapReduceCluster
    from repro.sim.engine import Simulator

#: frame schema identifier; bump on breaking layout changes
FRAME_SCHEMA = "repro.live/1"

#: counter namespaces copied into every frame (totals are monotonic, so
#: consumers diff adjacent frames for rates)
COUNTER_PREFIXES = (
    "jobs.",
    "attempts.",
    "sla.",
    "chaos.",
    "fault.",
)


def _round(value: float) -> float:
    """Frames must be byte-stable across platforms: round everything."""
    return round(float(value), 6)


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
class JsonlFrameSink:
    """Append each frame as one canonical JSON line.

    Lines are written with sorted keys and flushed per frame, so a
    concurrently running ``repro serve --follow`` or ``repro trace
    --follow`` in another terminal sees each frame as it is sampled.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.frames_written = 0
        self._fh = open(path, "w", encoding="utf-8")

    def __call__(self, frame: dict) -> None:
        self._fh.write(json.dumps(frame, sort_keys=True) + "\n")
        self._fh.flush()
        self.frames_written += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "JsonlFrameSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MemorySink:
    """Collect every frame in a plain list (tests, notebooks)."""

    def __init__(self) -> None:
        self.frames: List[dict] = []

    def __call__(self, frame: dict) -> None:
        self.frames.append(frame)


# ----------------------------------------------------------------------
# the sampler
# ----------------------------------------------------------------------
class LiveSampler:
    """Emit telemetry frames on a virtual-clock cadence.

    Parameters
    ----------
    sim:
        The simulator whose clock drives the cadence.
    interval_s:
        Virtual seconds between frames.
    ring_size:
        Bounded in-memory frame history (:attr:`frames`); the oldest
        frame is evicted once the ring is full.  Sinks see every frame
        regardless of eviction.
    cluster / mr / services / injector:
        Optional sources.  Each one that is supplied contributes its
        section of the frame; absent sources leave their section empty
        so the frame layout is stable either way.
    sla_window_s:
        Sliding window for the per-service latency percentiles
        (defaults to 6 sampling intervals).
    blame:
        When True *and* tracing is enabled, each frame carries the
        critical-path blame totals plus the per-category delta since
        the previous frame.  Recomputed only when a job finished since
        the last frame, so idle frames stay cheap.
    """

    def __init__(
        self,
        sim: "Simulator",
        interval_s: float = 5.0,
        ring_size: int = 512,
        cluster: Optional["Cluster"] = None,
        mr: Optional["MapReduceCluster"] = None,
        services: Sequence["InteractiveService"] = (),
        injector: Optional["ChaosInjector"] = None,
        sla_window_s: Optional[float] = None,
        blame: bool = False,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("sampling interval must be positive")
        if ring_size < 1:
            raise ValueError("ring size must be >= 1")
        self.sim = sim
        self.interval_s = interval_s
        self.cluster = cluster
        self.mr = mr
        self.services = list(services)
        self.injector = injector
        self.sla_window_s = (
            sla_window_s if sla_window_s is not None else 6.0 * interval_s
        )
        self.blame = blame
        self.ring: deque = deque(maxlen=ring_size)
        self.frames_emitted = 0
        self._sinks: List[Callable[[dict], None]] = []
        self._cancel: Optional[Callable[[], None]] = None
        self._last_sample_t: Optional[float] = None
        self._blame_total: Dict[str, float] = {}
        self._blame_jobs_seen = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def add_sink(self, sink: Callable[[dict], None]) -> None:
        self._sinks.append(sink)

    @property
    def frames(self) -> List[dict]:
        """Ring-buffer contents, oldest first."""
        return list(self.ring)

    @property
    def latest(self) -> Optional[dict]:
        return self.ring[-1] if self.ring else None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._cancel is not None:
            raise RuntimeError("sampler already started")
        self.sample()
        self._cancel = self.sim.call_every(self.interval_s, self.sample)

    def stop(self) -> None:
        """Stop the cadence and emit one closing frame.

        Call after the simulation finishes (or when tearing the sampler
        down for good): cancelling the pending cadence event leaves a
        queue tombstone, which is harmless then but -- like stopping any
        periodic collector mid-run -- would not be free while lockstep
        ``run(until=...)`` phases are still ahead.
        """
        if self._cancel is not None:
            self._cancel()
            self._cancel = None
            self.sample()

    # ------------------------------------------------------------------
    # frame assembly
    # ------------------------------------------------------------------
    def sample(self) -> Optional[dict]:
        """Assemble and emit one frame at the current virtual time.

        Deduplicates by timestamp (a ``stop()`` landing on a cadence
        tick emits a single frame, mirroring ``UtilizationCollector``).
        """
        now = self.sim.now
        if self._last_sample_t == now:
            return None
        self._last_sample_t = now
        frame = {
            "type": "frame",
            "schema": FRAME_SCHEMA,
            "seq": self.frames_emitted,
            "ts": _round(now),
            "util": self._sample_util(),
            "slots": self._sample_slots(),
            "queues": self._sample_queues(),
            "sla": self._sample_sla(now),
            "blame": self._sample_blame(),
            "chaos": self._sample_chaos(),
            "counters": self._sample_counters(),
        }
        self.frames_emitted += 1
        self.ring.append(frame)
        for sink in self._sinks:
            sink(frame)
        return frame

    # -- sources -------------------------------------------------------
    @staticmethod
    def _pm_util(pm) -> Dict[str, float]:
        return {
            "cpu": _round(pm.cpu_pool.utilization),
            "io": _round(pm.disk_pool.utilization),
            "mem": _round(mem_utilization(pm)),
        }

    @staticmethod
    def _mean_util(per_pm: List[Dict[str, float]]) -> Dict[str, float]:
        if not per_pm:
            return {"cpu": 0.0, "io": 0.0, "mem": 0.0, "pms": 0}
        out = {
            key: _round(sum(u[key] for u in per_pm) / len(per_pm))
            for key in ("cpu", "io", "mem")
        }
        out["pms"] = len(per_pm)
        return out

    def _sample_util(self) -> dict:
        cluster = self.cluster
        if cluster is None:
            return {"tiers": {}, "racks": {}, "cluster": {}}
        racks: Dict[str, Dict[str, float]] = {}
        tiers: Dict[str, List[Dict[str, float]]] = {"native": [], "virtual": []}
        for pm in cluster.pms:
            util = self._pm_util(pm)
            racks[pm.name] = util
            tiers["virtual" if pm.vms else "native"].append(util)
        return {
            "tiers": {
                tier: self._mean_util(pms) for tier, pms in tiers.items()
            },
            "racks": racks,
            "cluster": self._mean_util(list(racks.values())),
        }

    def _sample_slots(self) -> dict:
        mr = self.mr
        if mr is None:
            return {}
        from repro.mapreduce.task import TaskKind

        map_total = reduce_total = map_used = reduce_used = 0
        trackers_down = 0
        for tracker in mr.trackers:
            if not tracker.alive:
                trackers_down += 1
                continue
            map_total += tracker.map_slots
            reduce_total += tracker.reduce_slots
            map_used += tracker._running_of(TaskKind.MAP)
            reduce_used += tracker._running_of(TaskKind.REDUCE)
        return {
            "map_used": map_used,
            "map_total": map_total,
            "reduce_used": reduce_used,
            "reduce_total": reduce_total,
            "trackers_down": trackers_down,
        }

    def _sample_queues(self) -> dict:
        mr = self.mr
        if mr is None:
            return {}
        jt = mr.jt
        now = self.sim.now
        pending_maps = pending_reduces = running = 0
        ages: List[float] = []
        for job in jt.active_jobs:
            for task in job.map_tasks:
                if task.completed:
                    continue
                if task.scheduled:
                    running += len(task.running_attempts)
                else:
                    pending_maps += 1
                    if task.runnable_since is not None:
                        ages.append(now - task.runnable_since)
            for task in job.reduce_tasks:
                if task.completed:
                    continue
                if task.scheduled:
                    running += len(task.running_attempts)
                else:
                    pending_reduces += 1
                    if task.runnable_since is not None:
                        ages.append(now - task.runnable_since)
        return {
            "policy": jt.scheduler.name,
            "active_jobs": len(jt.active_jobs),
            "finished_jobs": len(jt.finished_jobs),
            "pending_maps": pending_maps,
            "pending_reduces": pending_reduces,
            "running_attempts": running,
            "oldest_pending_age_s": _round(max(ages)) if ages else 0.0,
            "mean_pending_age_s": (
                _round(sum(ages) / len(ages)) if ages else 0.0
            ),
        }

    def _sample_sla(self, now: float) -> dict:
        out: Dict[str, dict] = {}
        for service in self.services:
            summary = service.latency_summary(
                window_s=self.sla_window_s, now=now
            )
            summary["sla_ms"] = _round(service.sla_ms)
            summary["clients"] = service.current_clients
            summary["violated"] = bool(service.sla_violated)
            out[service.name] = summary
        return out

    def _sample_blame(self) -> dict:
        mr = self.mr
        obs = self.sim.obs
        if not self.blame or mr is None or not obs.tracer.enabled:
            return {}
        finished = len(mr.jt.finished_jobs)
        delta: Dict[str, float] = {}
        if finished != self._blame_jobs_seen:
            from repro.obs.critpath import blame_from_obs, blame_summary

            total = {
                category: _round(seconds)
                for category, seconds in blame_summary(
                    blame_from_obs(obs)
                ).items()
            }
            delta = {
                category: _round(seconds - self._blame_total.get(category, 0.0))
                for category, seconds in total.items()
                if abs(seconds - self._blame_total.get(category, 0.0)) > 1e-9
            }
            self._blame_total = total
            self._blame_jobs_seen = finished
        return {
            "jobs_finished": finished,
            "delta_s": delta,
            "total_s": dict(self._blame_total),
        }

    def _sample_chaos(self) -> dict:
        injector = self.injector
        if injector is None:
            return {}
        active = [
            {
                "kind": record.spec.kind,
                "target": record.target,
                "injected_at": _round(record.injected_at),
            }
            for record in injector.records
            if record.injected and record.healed_at is None
        ]
        return {
            "active": active,
            "injected": len(injector.injected),
            "skipped": len(injector.skipped),
        }

    def _sample_counters(self) -> Dict[str, float]:
        return {
            name: value
            for name, value in self.sim.obs.metrics.counters().items()
            if name.startswith(COUNTER_PREFIXES)
        }


# ----------------------------------------------------------------------
# frame files
# ----------------------------------------------------------------------
def read_frames(path: str) -> List[dict]:
    """Load the frames from a JSONL file (other event types are skipped)."""
    return [e for e in read_jsonl(path) if e.get("type") == "frame"]


def summarize_frames(frames: List[dict]) -> str:
    """One-paragraph digest of a frame stream (CLI + tests)."""
    if not frames:
        return "(no frames)"
    first, last = frames[0], frames[-1]
    util = last.get("util", {}).get("cluster", {})
    queues = last.get("queues", {})
    parts = [
        f"{len(frames)} frames over [{first['ts']:.1f}s, {last['ts']:.1f}s]",
        f"cluster cpu={util.get('cpu', 0.0):.2f} io={util.get('io', 0.0):.2f}",
    ]
    if queues:
        parts.append(
            f"jobs active={queues.get('active_jobs', 0)} "
            f"finished={queues.get('finished_jobs', 0)}"
        )
    chaos = last.get("chaos", {})
    if chaos.get("active"):
        parts.append(f"faults active={len(chaos['active'])}")
    return "  ".join(parts)


def _format_tail_line(event: dict) -> str:
    """Compact one-line rendering for ``repro trace --follow``."""
    kind = event.get("type")
    if kind == "frame":
        queues = event.get("queues", {})
        util = event.get("util", {}).get("cluster", {})
        return (
            f"frame seq={event.get('seq')} t={event.get('ts', 0.0):8.1f}s  "
            f"cpu={util.get('cpu', 0.0):.2f} io={util.get('io', 0.0):.2f}  "
            f"jobs={queues.get('active_jobs', 0)}/"
            f"{queues.get('finished_jobs', 0)} "
            f"pending={queues.get('pending_maps', 0)}m+"
            f"{queues.get('pending_reduces', 0)}r"
        )
    if kind == "span":
        return (
            f"span  {event.get('cat') or 'span'}:{event.get('name')} "
            f"t={event.get('ts', 0.0):8.1f}s dur={event.get('dur', 0.0):.3f}s"
        )
    if kind == "instant":
        return (
            f"inst  {event.get('cat') or 'instant'}:{event.get('name')} "
            f"t={event.get('ts', 0.0):8.1f}s"
        )
    if kind == "sample":
        return (
            f"samp  {event.get('series')} t={event.get('ts', 0.0):8.1f}s "
            f"value={event.get('value')}"
        )
    if kind == "counter":
        return f"ctr   {event.get('name')}={event.get('value')}"
    return json.dumps(event, sort_keys=True)


def tail_jsonl(
    path: str,
    follow: bool = False,
    poll_s: float = 0.25,
    idle_timeout_s: Optional[float] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Iterator[dict]:
    """Yield the events of a JSONL file, optionally following it.

    Reads by :func:`~repro.obs.export.read_jsonl_from`'s line rule.  With
    ``follow`` the generator keeps polling the file for new complete
    lines, which is what lets a second terminal watch a frames/events
    file while a live run writes it.  ``idle_timeout_s`` bounds how long
    to wait without new data before giving up (None follows until the
    consumer stops iterating or interrupts).
    """
    if poll_s <= 0:
        raise ValueError("poll interval must be positive")
    offset, idle = 0, 0.0
    while True:
        events, offset = read_jsonl_from(path, offset)
        yield from events
        if events:
            idle = 0.0
        if not follow or (idle_timeout_s is not None and idle >= idle_timeout_s):
            return
        sleep(poll_s)
        idle += poll_s
