"""Guest virtual machines and the Dom-0 privileged context.

A :class:`VirtualMachine` is an :class:`~repro.cluster.machine.ExecutionContext`
whose work passes through the hypervisor: efficiencies come from the
:class:`~repro.virt.overheads.OverheadModel` (and depend on how many VMs
share the host), and rates are capped so the guest can never exceed its
vCPU allocation regardless of how idle the host is.  The cap/weight
discipline mimics Xen's credit scheduler: a VM's tasks collectively get
one VM-weight of CPU, divided among them.

The Phase II scheduler actuates on VMs through three knobs, all modelled
here: ``cpu_fraction`` (credit-scheduler cap), ``io_limit_mbps``
(cgroups blkio throttle) and ``pause()``/``resume()``.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.cluster.machine import ExecutionContext, PhysicalMachine
from repro.cluster.resources import DEFAULT_VM_SPEC, Resources
from repro.virt.overheads import DEFAULT_OVERHEADS, OverheadModel


class VirtualMachine(ExecutionContext):
    """A Xen-style guest (default flavour: 1 vCPU, 1 GB RAM)."""

    __slots__ = (
        "spec",
        "overheads",
        "vm_weight",
        "paused",
        "cpu_fraction",
        "io_limit_mbps",
        "io_weight",
    )

    def __init__(
        self,
        name: str,
        pm: PhysicalMachine,
        spec: Resources = DEFAULT_VM_SPEC,
        overheads: OverheadModel = DEFAULT_OVERHEADS,
        weight: float = 1.0,
    ) -> None:
        super().__init__(name, pm, spec.mem_mb)
        self.spec = spec
        self.overheads = overheads
        self.vm_weight = weight
        self.paused = False
        #: credit-scheduler style cap: fraction of vCPU allocation usable.
        #: values above 1.0 are work-conserving uncapping (the DRM grants
        #: idle host cycles beyond the nominal vCPU allocation)
        self.cpu_fraction = 1.0
        #: cgroups blkio throttle in MB/s (None = unthrottled)
        self.io_limit_mbps: Optional[float] = None
        #: blkio weight: relative disk share vs other VMs on the host
        self.io_weight = 1.0
        pm.attach_vm(self)
        # the guest gets its own network endpoint, capped by the virtual
        # NIC ceiling and co-located (loopback) with its host's group
        net_cap = min(spec.net_mbps, overheads.vm_net_cap_mbps * max(1.0, spec.cpu_cores))
        pm.fabric.register_host(
            name, up_mbps=net_cap, down_mbps=net_cap, group=pm.name
        )

    # ------------------------------------------------------------------
    # context interface
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """The guest's own network endpoint (see fabric groups)."""
        return self.name

    @property
    def is_virtual(self) -> bool:
        return True

    def cpu_efficiency(self) -> float:
        return self.overheads.vm_cpu_efficiency(self._pm.vm_count)

    def disk_efficiency(self) -> float:
        eff = self.overheads.vm_io_efficiency(self._pm.vm_count)
        self._prune()
        if self._cpu_entries and self._disk_entries:
            eff -= self.overheads.mixed_workload_penalty
        return max(self.overheads.floor, eff)

    def net_efficiency(self) -> float:
        return self.overheads.net_eff

    # ------------------------------------------------------------------
    # the share rule: credit-scheduler caps and weights, blkio throttle
    # ------------------------------------------------------------------
    def run_cpu(self, core_seconds, on_complete=None, cap=1.0, label=""):
        entry = super().run_cpu(core_seconds, on_complete, cap, label)
        if not entry.done:
            self.refresh_entries()
        return entry

    def run_disk(
        self,
        mb,
        on_complete=None,
        cap=math.inf,
        label="",
        efficiency_penalty=0.0,
        cached=False,
    ):
        if cached:
            # page-cache I/O bypasses the blkio share, so it needs no
            # refresh; but a paused guest does no I/O at all, so it
            # starts frozen, as the next refresh would leave it
            cap = 0.0 if self.paused else math.inf
        entry = super().run_disk(
            mb, on_complete, cap, label, efficiency_penalty, cached
        )
        if not entry.done and not cached:
            self.refresh_entries()
        return entry

    def refresh_entries(self) -> None:
        """Recompute caps, weights and efficiencies for in-flight work.

        The one place a VM's share rule lives: its CPU entries split one
        VM weight and ``cpu_fraction`` of its vCPUs evenly, its disk
        entries split ``io_weight`` and the blkio throttle, and a paused
        guest's entries, page cache included, get cap 0.  A start
        (:meth:`run_cpu`, uncached :meth:`run_disk`) and every change
        to an input of the rule re-run it.  Runs as one batched update
        per pool (see :meth:`~repro.sim.pool.ResourcePool.begin_batch`):
        the whole refresh costs one rebalance per touched pool instead
        of three per entry.  A guest with no work in flight (every guest
        while a cluster is built) has nothing to refresh.
        """
        if not (self._cpu_entries or self._disk_entries or self._memio_entries):
            return
        pools = self._begin_refresh(memio=True)
        # opening a batch applies accrued progress, which can finish
        # entries: the shares split among the live ones only
        self._prune()
        try:
            paused = self.paused
            if self._cpu_entries:
                cpu_eff = self._combined_cpu_eff()
                n_cpu = len(self._cpu_entries)
                cpu_share = max(self.spec.cpu_cores * self.cpu_fraction / n_cpu, 1e-6)
                cpu_weight = self.vm_weight / n_cpu
                for entry, requested in self._cpu_entries.items():
                    entry.set_cap(0.0 if paused else min(requested, cpu_share))
                    entry.set_weight(cpu_weight)
                    entry.set_efficiency(cpu_eff)
            if self._disk_entries:
                base_disk_eff = self.disk_efficiency() * self.degrade_disk_factor
                n_disk = len(self._disk_entries)
                disk_weight = self.io_weight / n_disk
                limit = self.io_limit_mbps
                for entry, (requested, penalty) in self._disk_entries.items():
                    if paused:
                        entry.set_cap(0.0)
                    elif limit is not None:
                        entry.set_cap(min(requested, max(limit / n_disk, 1e-6)))
                    else:
                        entry.set_cap(requested)
                    entry.set_weight(disk_weight)
                    entry.set_efficiency(max(0.05, base_disk_eff - penalty))
            for entry in self._memio_entries:
                entry.set_cap(0.0 if paused else math.inf)
        finally:
            for pool in pools:
                pool.end_batch()

    def update_requested_caps(self, updates) -> None:
        """Change the rate ceilings in-flight entries asked for: write
        every ``(entry, cap)`` pair, then refresh once.

        Used by interactive services whose demand varies epoch to epoch;
        going through the VM keeps the credit-scheduler share math
        consistent.  The probe/settle loops adjust two entries per VM
        per epoch, and one refresh for all of them is what keeps wide
        service fleets off the pool-rebalance hot path.  An entry that
        has already finished is ignored."""
        for entry, cap in updates:
            if cap < 0:
                raise ValueError("cap must be non-negative")
            if entry in self._cpu_entries:
                self._cpu_entries[entry] = cap
            elif entry in self._disk_entries:
                self._disk_entries[entry] = (cap, self._disk_entries[entry][1])
        self.refresh_entries()

    # ------------------------------------------------------------------
    # actuators
    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Freeze the guest (entries stall at rate 0, nothing is lost)."""
        if self.paused:
            return
        self.paused = True
        self.refresh_entries()

    def resume(self) -> None:
        if not self.paused:
            return
        self.paused = False
        self.refresh_entries()

    def set_cpu_fraction(self, fraction: float) -> None:
        """Credit-scheduler cap as a fraction of the vCPU allocation.

        Values in (1.0, host_cores/vcpus] grant idle host cycles beyond
        the nominal allocation (work-conserving mode, used by the DRM's
        CPU management).
        """
        if fraction < 0.0:
            raise ValueError("fraction must be non-negative")
        max_fraction = self._pm.spec.cpu_cores / max(self.spec.cpu_cores, 1e-9)
        self.cpu_fraction = min(fraction, max_fraction)
        self.refresh_entries()

    def set_io_limit(self, mbps: Optional[float]) -> None:
        """cgroups blkio-style throttle (None removes the limit)."""
        if mbps is not None and mbps < 0:
            raise ValueError("io limit must be non-negative")
        self.io_limit_mbps = mbps
        self.refresh_entries()

    def set_io_weight(self, weight: float) -> None:
        """cgroups blkio weight: relative disk priority on the host."""
        if weight <= 0:
            raise ValueError("io weight must be positive")
        self.io_weight = weight
        self.refresh_entries()

    def balloon_to(self, mem_mb: float) -> None:
        """Resize the guest's memory (Xen ballooning).

        The DRM's memory manager moves capacity between collocated VMs;
        shrinking below current usage creates paging pressure rather
        than failing, as with a real balloon driver.
        """
        if mem_mb <= 0:
            raise ValueError("memory size must be positive")
        self.mem_capacity_mb = mem_mb
        self.refresh_entries()

    # ------------------------------------------------------------------
    # relocation (used by live migration)
    # ------------------------------------------------------------------
    def relocate(self, new_pm: PhysicalMachine) -> None:
        """Instantly rebind the VM to another host.

        Live migration semantics (transfer time, downtime) live in
        :mod:`repro.virt.migration`; this is the final placement switch.
        In-flight work moves with the guest: the very same pool entries
        leave the old host's pools and join the new host's, so their
        owners' handles, labels, requested caps and I/O penalties stay
        valid.  The entries are adopted before :meth:`attach_vm`
        refreshes the new host's guests, so that refresh already sees
        them.
        """
        old_pm = self._pm
        for entries, old_pool, new_pool in (
            (self._cpu_entries, old_pm.cpu_pool, new_pm.cpu_pool),
            (self._disk_entries, old_pm.disk_pool, new_pm.disk_pool),
            (self._memio_entries, old_pm.memio_pool, new_pm.memio_pool),
        ):
            for entry in [e for e in entries if not e.done]:
                old_pool.detach(entry)
                if not entry.done:
                    new_pool.adopt(entry)
        old_pm.detach_vm(self)
        self._pm = new_pm
        new_pm.attach_vm(self)
        new_pm.fabric.set_group(self.name, new_pm.name)
        # the guest's DataNodes move with it
        moving = tuple(d for d in old_pm.datanodes if d.context is self)
        if moving:
            old_pm.datanodes = tuple(
                d for d in old_pm.datanodes if d.context is not self
            )
            new_pm.datanodes += moving

    def activity_level(self) -> float:
        """Rough [0,1] score of how hard the guest is working.

        Drives the dirty-page rate during live migration: a VM running
        Wcount dirties memory much faster than an idle one.
        """
        self._prune()
        cpu = sum(e.rate for e in self._cpu_entries)
        disk = sum(e.rate for e in self._disk_entries)
        cpu_part = min(1.0, cpu / max(self.spec.cpu_cores, 1e-9))
        disk_part = min(1.0, disk / 40.0)
        return min(1.0, 0.6 * cpu_part + 0.4 * disk_part)


class Dom0Context(ExecutionContext):
    """Xen's privileged domain running work quasi-natively.

    Figure 2(c): Dom-0 performance is within 5% of native, enabling the
    'flexibly virtualized' hosts that can transition between running
    guests and running near-native batch work.
    """

    __slots__ = ("overheads",)

    def __init__(
        self,
        name: str,
        pm: PhysicalMachine,
        overheads: OverheadModel = DEFAULT_OVERHEADS,
    ) -> None:
        super().__init__(name, pm, pm.spec.mem_mb)
        self.overheads = overheads

    def cpu_efficiency(self) -> float:
        return self.overheads.dom0_eff

    def disk_efficiency(self) -> float:
        return self.overheads.dom0_eff

    def net_efficiency(self) -> float:
        return self.overheads.dom0_eff
