"""Physical machines and execution contexts.

A :class:`PhysicalMachine` is a server: a CPU pool (cores), a disk pool
(MB/s), a memory ledger, a NIC registered with the network fabric, and
a power model.

An :class:`ExecutionContext` is *where work runs*: directly on the
machine (:class:`NativeContext`), in the Xen privileged domain
(:class:`~repro.virt.vm.Dom0Context`), or inside a guest VM
(:class:`~repro.virt.vm.VirtualMachine`).  MapReduce TaskTrackers,
DataNodes and interactive services all execute against this interface,
which is what lets the same Hadoop model run on native, Dom-0, virtual
and hybrid clusters -- the comparison at the heart of the paper.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.cluster.power import PowerModel
from repro.cluster.resources import DEFAULT_PM_SPEC, Resources
from repro.sim.engine import Simulator
from repro.sim.network import NetworkFabric
from repro.sim.pool import PoolEntry, ResourcePool

if TYPE_CHECKING:  # pragma: no cover
    from repro.hdfs.datanode import DataNode
    from repro.virt.vm import VirtualMachine


class ExecutionContext:
    """Base class for anything tasks can run on.

    Subclasses define the efficiency model (virtualization overheads)
    and capacity shares.  The base class tracks live pool entries so
    that memory pressure and throttling changes can be propagated to
    in-flight work, and keeps the memory ledger.

    Contexts are per-host records, so they are slotted, as are
    :class:`PhysicalMachine` and its pools: at 10k hosts an instance
    ``__dict__`` per record is memory spent for nothing.
    """

    __slots__ = (
        "name",
        "_pm",
        "mem_capacity_mb",
        "mem_used_mb",
        "_cpu_entries",
        "_disk_entries",
        "_memio_entries",
        "degrade_cpu_factor",
        "degrade_disk_factor",
    )

    def __init__(self, name: str, pm: "PhysicalMachine", mem_capacity_mb: float) -> None:
        self.name = name
        self._pm = pm
        self.mem_capacity_mb = mem_capacity_mb
        self.mem_used_mb = 0.0
        #: the one record of in-flight work, per pool and in start order:
        #: a CPU entry maps to the cap its owner asked for, a disk entry
        #: to ``(requested cap, I/O penalty)`` (so refreshes recompute
        #: absolute shares and efficiencies instead of ratcheting them),
        #: a page-cache entry to ``None``.  Finished entries linger until
        #: the next :meth:`_prune`; readers prune first or skip them.
        self._cpu_entries: Dict[PoolEntry, float] = {}
        self._disk_entries: Dict[PoolEntry, Tuple[float, float]] = {}
        self._memio_entries: Dict[PoolEntry, None] = {}
        #: transient fault-injection multipliers in (0, 1]: CPU steal
        #: (noisy neighbour / hypervisor contention) and a degraded disk
        #: (remapped sectors, failing controller).  Applied on top of the
        #: virtualization efficiency model; 1.0 means healthy.
        self.degrade_cpu_factor = 1.0
        self.degrade_disk_factor = 1.0

    # -- identity -------------------------------------------------------
    @property
    def pm(self) -> "PhysicalMachine":
        return self._pm

    @property
    def host(self) -> str:
        """Network endpoint (the PM's NIC) for flows from this context."""
        return self._pm.name

    @property
    def is_virtual(self) -> bool:
        return False

    # -- efficiency model (overridden by virtual contexts) ---------------
    def cpu_efficiency(self) -> float:
        return 1.0

    def disk_efficiency(self) -> float:
        return 1.0

    def net_efficiency(self) -> float:
        return 1.0

    # -- memory ----------------------------------------------------------
    def alloc_mem(self, mb: float) -> None:
        """Reserve memory; over-commit is allowed but slows CPU work."""
        if mb < 0:
            raise ValueError("mb must be non-negative")
        self.mem_used_mb += mb
        self.refresh_entries()

    def free_mem(self, mb: float) -> None:
        if mb < 0:
            raise ValueError("mb must be non-negative")
        self.mem_used_mb = max(0.0, self.mem_used_mb - mb)
        self.refresh_entries()

    def memory_pressure_factor(self) -> float:
        """Piece-wise linear slowdown from memory over-commit.

        At or below capacity there is no penalty; past capacity the
        penalty grows linearly (paging) down to a floor of 0.25.  This
        is the piece-wise linear memory interference relation the paper
        adopts from MROrchestrator [31].
        """
        if self.mem_capacity_mb <= 0:
            return 1.0
        ratio = self.mem_used_mb / self.mem_capacity_mb
        if ratio <= 1.0:
            return 1.0
        return max(0.25, 1.0 - 0.6 * (ratio - 1.0))

    # -- transient degradation (fault injection) --------------------------
    def set_degradation(self, cpu: float = 1.0, disk: float = 1.0) -> None:
        """Degrade this context's CPU/disk to the given capacity factors.

        In-flight work slows down immediately (same refresh discipline
        as memory pressure); passing 1.0 restores full health.
        """
        if not 0.0 < cpu <= 1.0 or not 0.0 < disk <= 1.0:
            raise ValueError("degradation factors must be in (0, 1]")
        self.degrade_cpu_factor = cpu
        self.degrade_disk_factor = disk
        self.refresh_entries()

    @property
    def degraded(self) -> bool:
        return self.degrade_cpu_factor < 1.0 or self.degrade_disk_factor < 1.0

    # -- running work -----------------------------------------------------
    def run_cpu(
        self,
        core_seconds: float,
        on_complete: Optional[Callable[[], None]] = None,
        cap: float = 1.0,
        label: str = "",
    ) -> PoolEntry:
        """Execute ``core_seconds`` of computation in this context.

        ``cap`` bounds the entry's rate (a single-threaded task can use
        at most 1 core regardless of idle capacity).
        """
        entry = self._pm.cpu_pool.add(
            core_seconds,
            on_complete,
            cap=cap,
            efficiency=self._combined_cpu_eff(),
            label=label or f"{self.name}:cpu",
        )
        if not entry.done:
            self._cpu_entries[entry] = cap
        return entry

    def run_disk(
        self,
        mb: float,
        on_complete: Optional[Callable[[], None]] = None,
        cap: float = math.inf,
        label: str = "",
        efficiency_penalty: float = 0.0,
        cached: bool = False,
    ) -> PoolEntry:
        """Read or write ``mb`` megabytes against the PM's disk.

        ``efficiency_penalty`` lets callers model sustained-contention
        degradation (large jobs keep many concurrent streams alive, and
        the paper shows the virtual/native gap widening with data size).
        ``cached`` routes the I/O through the page-cache pool instead of
        the disk (the caller decides whether the working set fits).
        ``cap`` bounds the entry's rate on either route.
        """
        if cached:
            entry = self._pm.memio_pool.add(
                mb,
                on_complete,
                cap=cap,
                efficiency=0.95 if self.is_virtual else 1.0,
                label=label or f"{self.name}:memio",
            )
            if not entry.done:
                self._memio_entries[entry] = None
            return entry
        eff = max(
            0.05, self.disk_efficiency() * self.degrade_disk_factor - efficiency_penalty
        )
        entry = self._pm.disk_pool.add(
            mb,
            on_complete,
            cap=cap,
            efficiency=eff,
            label=label or f"{self.name}:disk",
        )
        if not entry.done:
            self._disk_entries[entry] = (cap, efficiency_penalty)
        return entry

    def _combined_cpu_eff(self) -> float:
        return max(
            0.05,
            self.cpu_efficiency()
            * self.memory_pressure_factor()
            * self.degrade_cpu_factor,
        )

    def _prune(self) -> None:
        """Drop finished entries (completed or removed) from the maps."""
        for entries in (self._cpu_entries, self._disk_entries, self._memio_entries):
            if entries:
                for entry in [e for e in entries if e.done]:
                    del entries[entry]

    def _begin_refresh(self, memio: bool) -> List[ResourcePool]:
        """Prune, then open one batch per pool this context has work in
        -- CPU, then disk, then (if ``memio``) page cache -- and return
        the pools for :meth:`~repro.sim.pool.ResourcePool.end_batch`."""
        self._prune()
        pm = self._pm
        pools = []
        if self._cpu_entries:
            pools.append(pm.cpu_pool)
        if self._disk_entries:
            pools.append(pm.disk_pool)
        if memio and self._memio_entries:
            pools.append(pm.memio_pool)
        for pool in pools:
            pool.begin_batch()
        return pools

    def refresh_entries(self) -> None:
        """Re-apply efficiencies to in-flight work after a change.

        Caps and weights stay as the owners asked.  Runs as one batched
        update per pool (see
        :meth:`~repro.sim.pool.ResourcePool.begin_batch`): the whole
        refresh costs one rebalance per touched pool instead of one per
        entry mutation.
        """
        pools = self._begin_refresh(memio=False)
        try:
            if self._cpu_entries:
                cpu_eff = self._combined_cpu_eff()
                for entry in self._cpu_entries:
                    entry.set_efficiency(cpu_eff)
            if self._disk_entries:
                base_eff = self.disk_efficiency() * self.degrade_disk_factor
                for entry, (_, penalty) in self._disk_entries.items():
                    entry.set_efficiency(max(0.05, base_eff - penalty))
        finally:
            for pool in pools:
                pool.end_batch()

    @property
    def active_cpu_entries(self) -> int:
        self._prune()
        return len(self._cpu_entries)

    @property
    def active_disk_entries(self) -> int:
        self._prune()
        return len(self._disk_entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r} on {self._pm.name!r})"


class NativeContext(ExecutionContext):
    """Work running directly on the physical machine (no hypervisor)."""

    __slots__ = ()


class PhysicalMachine:
    """One server of the testbed."""

    __slots__ = (
        "sim",
        "fabric",
        "name",
        "spec",
        "power_model",
        "cpu_pool",
        "disk_pool",
        "memio_pool",
        "cache_budget_mb",
        "powered_on",
        "vms",
        "datanodes",
        "native",
    )

    def __init__(
        self,
        sim: Simulator,
        fabric: NetworkFabric,
        name: str,
        spec: Resources = DEFAULT_PM_SPEC,
        power_model: Optional[PowerModel] = None,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.name = name
        self.spec = spec
        self.power_model = power_model or PowerModel()
        self.cpu_pool = ResourcePool(sim, spec.cpu_cores, name=f"{name}:cpu")
        self.disk_pool = ResourcePool(sim, spec.disk_mbps, name=f"{name}:disk")
        #: OS page cache: I/O that fits in memory moves at memory-copy
        #: speed through this pool instead of the disk (see
        #: JobTracker.io_cached for the fit rule)
        self.memio_pool = ResourcePool(sim, 400.0, name=f"{name}:memio")
        #: page-cache budget available to workloads
        self.cache_budget_mb = 0.5 * spec.mem_mb
        self.powered_on = True
        self.vms: List["VirtualMachine"] = []
        #: HDFS DataNodes registered on this machine's contexts (native,
        #: Dom-0 or guest), kept by the NameNode and by
        #: :meth:`~repro.virt.vm.VirtualMachine.relocate`; a tuple, the
        #: smallest record at 10k machines
        self.datanodes: Tuple["DataNode", ...] = ()
        if not fabric.has_host(name):
            fabric.register_host(name, up_mbps=spec.net_mbps, down_mbps=spec.net_mbps)
        self.native = NativeContext(f"{name}:native", self, spec.mem_mb)

    # -- VM hosting -------------------------------------------------------
    def attach_vm(self, vm: "VirtualMachine") -> None:
        if vm in self.vms:
            raise ValueError(f"{vm.name} already on {self.name}")
        self.vms.append(vm)
        self._density_changed()

    def detach_vm(self, vm: "VirtualMachine") -> None:
        self.vms.remove(vm)
        self._density_changed()

    def _density_changed(self) -> None:
        for vm in self.vms:
            vm.refresh_entries()

    @property
    def vm_count(self) -> int:
        return len(self.vms)

    # -- power ------------------------------------------------------------
    def power_off(self) -> None:
        """Turn the server off (only valid when idle)."""
        if self.cpu_pool.entries or self.disk_pool.entries or self.vms:
            raise RuntimeError(f"cannot power off busy machine {self.name}")
        self.powered_on = False

    def power_on(self) -> None:
        self.powered_on = True

    def utilization(self) -> float:
        """Blended utilization used for power (CPU-dominated)."""
        return min(1.0, 0.7 * self.cpu_pool.utilization + 0.3 * self.disk_pool.utilization)

    def current_power_watts(self) -> float:
        return self.power_model.power(self.utilization(), self.powered_on)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhysicalMachine({self.name!r}, vms={len(self.vms)})"
