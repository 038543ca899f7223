"""TaskTrackers: per-node slot management.

The paper's configuration is 2 map + 2 reduce slots per node (Hadoop
0.22 defaults for dual-core machines); Figure 2(b) varies these to give
CPU-bound jobs more concurrency on multi-VM hosts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.cluster.machine import ExecutionContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.task import TaskAttempt, TaskKind


class TaskTracker:
    """One Hadoop worker node bound to an execution context.

    Free-slot queries are counter-backed (maintained in assign/release)
    rather than scans of the running list: the dispatcher's name-order
    cursor calls them for each tracker it walks past, and its loaded-fleet
    ``min()`` for every tracker, which is the scheduler hot path at
    datacenter scale.
    """

    __slots__ = (
        "context",
        "map_slots",
        "reduce_slots",
        "running",
        "alive",
        "name",
        "_running_maps",
        "_running_reduces",
        "_gauge",
    )

    def __init__(
        self,
        context: ExecutionContext,
        map_slots: int = 2,
        reduce_slots: int = 2,
    ) -> None:
        if map_slots < 0 or reduce_slots < 0:
            raise ValueError("slot counts must be non-negative")
        self.context = context
        self.map_slots = map_slots
        self.reduce_slots = reduce_slots
        #: running attempts in start order, an ordered set (values
        #: unused): release is O(1), and the empty dict of an idle
        #: tracker is not tracked by the cyclic collector
        self.running: Dict["TaskAttempt", None] = {}
        self.alive = True
        self.name = f"tt-{context.name}"
        self._running_maps = 0
        self._running_reduces = 0
        self._gauge: Optional[object] = None  # lazy: registry comes from sim

    @property
    def host(self) -> str:
        return self.context.host

    def _running_of(self, kind: "TaskKind") -> int:
        from repro.mapreduce.task import TaskKind

        return self._running_maps if kind is TaskKind.MAP else self._running_reduces

    def free_map_slots(self) -> int:
        if not self.alive:
            return 0
        return self.map_slots - self._running_maps

    def free_reduce_slots(self) -> int:
        if not self.alive:
            return 0
        return self.reduce_slots - self._running_reduces

    def assign(self, attempt: "TaskAttempt") -> None:
        from repro.mapreduce.task import TaskKind

        is_map = attempt.task.kind is TaskKind.MAP
        free = self.free_map_slots() if is_map else self.free_reduce_slots()
        if free <= 0:
            raise RuntimeError(f"{self.name} has no free {attempt.task.kind.value} slot")
        self.running[attempt] = None
        if is_map:
            self._running_maps += 1
        else:
            self._running_reduces += 1
        metrics = attempt.sim.obs.metrics
        metrics.counter("slots.assignments").inc()
        gauge = self._gauge
        if gauge is None:
            gauge = self._gauge = metrics.gauge(f"tracker.{self.name}.running")
        gauge.set(len(self.running))

    def release(self, attempt: "TaskAttempt") -> None:
        from repro.mapreduce.task import TaskKind

        if attempt in self.running:
            del self.running[attempt]
            if attempt.task.kind is TaskKind.MAP:
                self._running_maps -= 1
            else:
                self._running_reduces -= 1
            gauge = self._gauge
            if gauge is None:
                gauge = self._gauge = attempt.sim.obs.metrics.gauge(
                    f"tracker.{self.name}.running"
                )
            gauge.set(len(self.running))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskTracker({self.name!r}, running={len(self.running)})"
