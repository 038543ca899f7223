"""Interactive services: closed-loop queueing over obtained capacity.

Model
-----
``N`` clients cycle between thinking (``Z`` seconds) and waiting for a
request that costs ``D`` CPU-seconds and ``B`` MB of disk per request.
The service runs on one or more VMs; each epoch it

1. *probes* how much CPU/disk rate its VMs can obtain at peak demand
   (by raising its open-ended pool entries' caps and reading back the
   fair-share rates the pools grant);
2. solves the closed-loop processor-sharing fixed point
   ``R = D / (1 - lambda D / C)`` with ``lambda = N / (Z + R)`` for the
   response time ``R`` (CPU and disk components add);
3. settles its entries at the equilibrium demand, leaving genuine spare
   capacity for collocated batch VMs -- the over-provisioning headroom
   HybridMR consolidates into.

Collocated MapReduce VMs reduce the obtainable ``C``; the latency rise
this produces is the interference that the IPS (Section III-B2)
detects and mitigates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.interactive.loadgen import LoadProfile
from repro.sim.engine import Simulator
from repro.sim.pool import PoolEntry
from repro.sim.trace import Trace
from repro.virt.vm import VirtualMachine

#: response time cap: a completely starved service reports this (ms)
MAX_LATENCY_MS = 60_000.0


def solve_closed_loop_latency(
    n_clients: int,
    think_s: float,
    demand_per_req: float,
    capacity: float,
) -> float:
    """Response time (s) of a closed PS system.

    Solves ``R = D / (1 - (N/(Z+R)) * D / C)`` for ``R`` (positive root
    of the quadratic), clamping to the starved limit when ``C`` is
    (nearly) zero.  ``demand_per_req`` and ``capacity`` must share units
    (CPU-s/req with cores, or MB/req with MB/s).
    """
    if n_clients <= 0 or demand_per_req <= 0:
        return 0.0
    if capacity <= 1e-9:
        return MAX_LATENCY_MS / 1000.0
    d = demand_per_req
    z = think_s
    nd_c = n_clients * d / capacity
    # R^2 + R(Z - ND/C - D) - DZ = 0
    b = z - nd_c - d
    c = -d * z
    disc = b * b - 4 * c
    r = (-b + math.sqrt(disc)) / 2.0
    return min(max(r, d), MAX_LATENCY_MS / 1000.0)


@dataclass(frozen=True)
class ServiceProfile:
    """Per-request costs of an interactive application."""

    name: str
    cpu_per_req_s: float
    io_mb_per_req: float
    think_time_s: float
    base_latency_s: float = 0.005  # network round trip etc.


#: RUBiS browsing mix: light CPU, light I/O, 7 s think time [28]
RUBIS = ServiceProfile("RUBiS", cpu_per_req_s=0.010, io_mb_per_req=0.04, think_time_s=7.0)
#: TPC-W shopping mix: heavier pages and DB I/O [32]
TPCW = ServiceProfile("TPC-W", cpu_per_req_s=0.016, io_mb_per_req=0.12, think_time_s=7.0)
#: Olio social-events app: dynamic Web 2.0 pages [26]
OLIO = ServiceProfile("Olio", cpu_per_req_s=0.020, io_mb_per_req=0.08, think_time_s=5.0)


class InteractiveService:
    """A transactional application spread over one or more VMs."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        profile: ServiceProfile,
        vms: List[VirtualMachine],
        load: LoadProfile,
        sla_ms: float = 2000.0,
        epoch_s: float = 5.0,
    ) -> None:
        if not vms:
            raise ValueError("service needs at least one VM")
        if epoch_s <= 0:
            raise ValueError("epoch must be positive")
        self.sim = sim
        self.name = name
        self.profile = profile
        self.vms = vms
        self.load = load
        self.sla_ms = sla_ms
        self.epoch_s = epoch_s
        self.latency_trace = Trace(f"{name}:latency_ms")
        self.current_latency_ms = profile.base_latency_s * 1000.0
        self.current_clients = 0
        self._cpu_entries: List[PoolEntry] = []
        self._disk_entries: List[PoolEntry] = []
        self._cancel = None
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise RuntimeError(f"service {self.name} already started")
        self._started = True
        for vm in self.vms:
            cpu = vm.run_cpu(math.inf, cap=0.0, label=f"{self.name}:cpu")
            disk = vm.run_disk(math.inf, cap=0.0, label=f"{self.name}:io")
            self._cpu_entries.append(cpu)
            self._disk_entries.append(disk)
        self._epoch()
        self._cancel = self.sim.call_every(self.epoch_s, self._epoch)

    def stop(self) -> None:
        if self._cancel is not None:
            self._cancel()
            self._cancel = None
        for cpu, disk in zip(self._cpu_entries, self._disk_entries):
            cpu.pool.remove(cpu)
            disk.pool.remove(disk)
        self._cpu_entries.clear()
        self._disk_entries.clear()
        self._started = False

    # ------------------------------------------------------------------
    # the epoch loop
    # ------------------------------------------------------------------
    def _epoch(self) -> None:
        n = self.load.clients(self.sim.now)
        self.current_clients = n
        profile = self.profile
        n_vms = len(self.vms)

        # background disk pressure from other tenants, sampled before the
        # probe below distorts the pools (and net of our own entries)
        rho = self._background_disk_utilization()

        # probe: raise caps to the full VM allocation and read back the
        # rates the fair-share pools actually grant -- that is the
        # capacity available to the service *given current collocation*
        cpu_capacity = 0.0
        io_capacity = 0.0
        for vm, cpu, disk in zip(self.vms, self._cpu_entries, self._disk_entries):
            vm.update_requested_caps(((cpu, vm.spec.cpu_cores), (disk, vm.spec.disk_mbps)))
        for cpu, disk in zip(self._cpu_entries, self._disk_entries):
            cpu_capacity += cpu.rate * cpu.efficiency
            io_capacity += disk.rate * disk.efficiency

        r_cpu = solve_closed_loop_latency(
            n, profile.think_time_s, profile.cpu_per_req_s, cpu_capacity
        )
        # small random-access requests queue behind the streaming I/O of
        # collocated batch VMs; inflate the per-request disk cost by an
        # M/G/1-style waiting factor in the shared disk's utilization.
        # This is the exponential I/O interference of Figure 6(c).
        io_demand = profile.io_mb_per_req * (1.0 + rho / max(0.04, 1.0 - rho))
        r_io = solve_closed_loop_latency(
            n, profile.think_time_s, io_demand, io_capacity
        )
        latency_s = profile.base_latency_s + r_cpu + r_io
        self.current_latency_ms = min(latency_s * 1000.0, MAX_LATENCY_MS)
        self.latency_trace.record(self.sim.now, self.current_latency_ms)
        obs = self.sim.obs
        obs.metrics.gauge(f"svc.{self.name}.latency_ms").set(self.current_latency_ms)
        obs.metrics.gauge(f"svc.{self.name}.clients").set(float(n))
        obs.metrics.histogram(f"svc.{self.name}.latency_ms").observe(
            self.current_latency_ms
        )
        if obs.tracer.enabled:
            obs.tracer.instant(
                f"probe:{self.name}",
                category="sla",
                track=f"svc:{self.name}",
                latency_ms=self.current_latency_ms,
                clients=n,
                cpu_capacity=cpu_capacity,
                io_capacity=io_capacity,
            )

        # settle: hold only the equilibrium demand, freeing real slack
        lam = n / (profile.think_time_s + latency_s) if n else 0.0
        cpu_eq = lam * profile.cpu_per_req_s / n_vms
        io_eq = lam * profile.io_mb_per_req / n_vms
        for vm, cpu, disk in zip(self.vms, self._cpu_entries, self._disk_entries):
            vm.update_requested_caps(((cpu, cpu_eq), (disk, io_eq)))

    def _background_disk_utilization(self) -> float:
        """Disk utilization of the service's hosts from *other* tenants."""
        own = set(self._disk_entries)  # pool entries hash by identity
        pms = {vm.pm for vm in self.vms}
        total = 0.0
        for pm in pms:
            if pm.disk_pool.capacity <= 0:
                continue
            foreign = sum(
                e.rate for e in pm.disk_pool.entries if e not in own
            )
            total += min(1.0, foreign / pm.disk_pool.capacity)
        return total / len(pms)

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    @property
    def sla_violated(self) -> bool:
        return self.current_latency_ms > self.sla_ms

    def violation_fraction(self) -> float:
        """Fraction of epochs so far that breached the SLA."""
        if not len(self.latency_trace):
            return 0.0
        bad = sum(1 for _, v in self.latency_trace if v > self.sla_ms)
        return bad / len(self.latency_trace)

    def mean_latency_ms(self) -> float:
        return self.latency_trace.mean()

    def latency_summary(
        self, window_s: Optional[float] = None, now: Optional[float] = None
    ) -> dict:
        """Latency statistics as a JSON-able, NaN-free dict.

        With ``window_s`` only probe epochs inside ``[now - window_s,
        now]`` count (``now`` defaults to the simulation clock) -- the
        sliding window the live telemetry frames carry.  A window with
        no completed requests is well-defined: ``count`` is 0 and every
        statistic is 0.0, never NaN, so summaries stay byte-comparable.
        """
        trace = self.latency_trace
        if window_s is not None:
            if window_s <= 0:
                raise ValueError("window must be positive")
            end = self.sim.now if now is None else now
            trace = trace.window(end - window_s, end)
        count = len(trace)
        return {
            "count": count,
            "mean_ms": round(trace.mean(), 6),
            "p50_ms": round(trace.percentile(50.0), 6),
            "p95_ms": round(trace.percentile(95.0), 6),
            "p99_ms": round(trace.percentile(99.0), 6),
            "max_ms": round(trace.max(), 6),
            "violations": sum(1 for v in trace.values if v > self.sla_ms),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InteractiveService({self.name!r}, vms={len(self.vms)}, "
            f"latency={self.current_latency_ms:.0f}ms)"
        )
