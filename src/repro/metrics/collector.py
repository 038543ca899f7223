"""Periodic utilization sampling across a cluster (Figure 10(a))."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.sim.trace import TraceSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.machine import PhysicalMachine
    from repro.sim.engine import Simulator


def mem_utilization(pm: "PhysicalMachine") -> float:
    """Share of ``pm``'s memory its native context and guests use (at most 1)."""
    used = pm.native.mem_used_mb + sum(vm.mem_used_mb for vm in pm.vms)
    return min(1.0, used / pm.spec.mem_mb) if pm.spec.mem_mb else 0.0


class UtilizationCollector:
    """Samples CPU / memory / disk utilization of every PM on a cadence.

    Traces are keyed ``cpu``, ``mem`` and ``io`` (cluster means).
    """

    def __init__(
        self,
        sim: "Simulator",
        cluster: "Cluster",
        interval_s: float = 60.0,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.cluster = cluster
        self.interval_s = interval_s
        self.traces = TraceSet()
        self._cancel: Optional[Callable[[], None]] = None
        self._last_sample_t: Optional[float] = None

    def start(self) -> None:
        if self._cancel is not None:
            raise RuntimeError("collector already started")
        self._sample()
        self._cancel = self.sim.call_every(self.interval_s, self._sample)

    def stop(self) -> None:
        if self._cancel is not None:
            self._cancel()
            self._cancel = None
            # close the series at the stop time so the last interval
            # between cadence ticks is not silently dropped
            self._sample()

    def _sample(self) -> None:
        now = self.sim.now
        pms = self.cluster.pms
        if not pms:
            return
        if self._last_sample_t == now:
            return  # stop() right on a cadence tick, or restart at stop time
        self._last_sample_t = now
        cpu = sum(pm.cpu_pool.utilization for pm in pms) / len(pms)
        io = sum(pm.disk_pool.utilization for pm in pms) / len(pms)
        mem = sum(mem_utilization(pm) for pm in pms) / len(pms)
        self.traces.record("cpu", now, cpu)
        self.traces.record("io", now, io)
        self.traces.record("mem", now, mem)

    def mean(self, key: str) -> float:
        if key not in self.traces:
            return 0.0
        return self.traces[key].mean()
