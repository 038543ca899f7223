"""Cluster assembly: native, virtual, Dom-0 and hybrid configurations.

The paper evaluates three design points over the same 24 servers:

- **Native**: 24 physical Hadoop nodes.
- **Virtual**: VMs consolidated on fewer servers (e.g. 24 VMs on 12
  PMs, or the full 48-VM cluster at 2 VMs/PM).
- **Hybrid**: a mix -- e.g. 12 physical nodes plus 12 VMs consolidated
  on 6 PMs, using 18 powered servers in total.

:class:`Cluster` builds these shapes, owns the shared network fabric and
energy meter, and exposes the execution contexts that the MapReduce and
interactive layers deploy onto.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.cluster.machine import ExecutionContext, NativeContext, PhysicalMachine
from repro.cluster.power import EnergyMeter, PowerModel
from repro.cluster.resources import DEFAULT_PM_SPEC, DEFAULT_VM_SPEC, Resources
from repro.sim.engine import Simulator
from repro.sim.network import NetworkFabric
from repro.virt.overheads import DEFAULT_OVERHEADS, OverheadModel
from repro.virt.vm import Dom0Context, VirtualMachine


class Cluster:
    """A set of physical machines plus the VMs carved out of them."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Optional[NetworkFabric] = None,
        pm_spec: Resources = DEFAULT_PM_SPEC,
        power_model: Optional[PowerModel] = None,
        overheads: OverheadModel = DEFAULT_OVERHEADS,
    ) -> None:
        self.sim = sim
        self.fabric = fabric or NetworkFabric(sim)
        self.pm_spec = pm_spec
        self.power_model = power_model or PowerModel()
        self.overheads = overheads
        self.pms: List[PhysicalMachine] = []
        self.vms: List[VirtualMachine] = []
        self.meter: Optional[EnergyMeter] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_pm(self, name: Optional[str] = None) -> PhysicalMachine:
        name = name or f"pm{len(self.pms):02d}"
        pm = PhysicalMachine(
            self.sim, self.fabric, name, self.pm_spec, self.power_model
        )
        self.pms.append(pm)
        return pm

    def add_vm(
        self,
        pm: PhysicalMachine,
        name: Optional[str] = None,
        spec: Resources = DEFAULT_VM_SPEC,
    ) -> VirtualMachine:
        name = name or f"vm{len(self.vms):02d}"
        vm = VirtualMachine(name, pm, spec, self.overheads)
        self.vms.append(vm)
        return vm

    def dom0(self, pm: PhysicalMachine) -> Dom0Context:
        """A quasi-native context in the privileged domain of ``pm``."""
        return Dom0Context(f"{pm.name}:dom0", pm, self.overheads)

    def start_metering(self, sample_interval: float = 5.0) -> EnergyMeter:
        self.meter = EnergyMeter(self.sim, self.pms, sample_interval)
        return self.meter

    # ------------------------------------------------------------------
    # canonical shapes from the paper
    # ------------------------------------------------------------------
    @classmethod
    def native(
        cls, sim: Simulator, n_pms: int, **kwargs
    ) -> "Cluster":
        """``n_pms`` physical nodes, no virtualization."""
        cluster = cls(sim, **kwargs)
        for _ in range(n_pms):
            cluster.add_pm()
        return cluster

    @classmethod
    def virtual(
        cls,
        sim: Simulator,
        n_pms: int,
        vms_per_pm: int = 2,
        vm_spec: Resources = DEFAULT_VM_SPEC,
        **kwargs,
    ) -> "Cluster":
        """``n_pms`` servers each hosting ``vms_per_pm`` guests."""
        cluster = cls(sim, **kwargs)
        for _ in range(n_pms):
            pm = cluster.add_pm()
            for _ in range(vms_per_pm):
                cluster.add_vm(pm, spec=vm_spec)
        return cluster

    @classmethod
    def hybrid(
        cls,
        sim: Simulator,
        n_native_pms: int,
        n_virt_pms: int,
        vms_per_pm: int = 2,
        vm_spec: Resources = DEFAULT_VM_SPEC,
        **kwargs,
    ) -> "Cluster":
        """``n_native_pms`` bare servers + ``n_virt_pms`` virtualized ones.

        The paper's hybrid design point is 12 native PMs + 12 VMs
        consolidated on 6 PMs (2 VMs each): ``hybrid(sim, 12, 6, 2)``.
        """
        cluster = cls(sim, **kwargs)
        for _ in range(n_native_pms):
            cluster.add_pm()
        for _ in range(n_virt_pms):
            pm = cluster.add_pm()
            for _ in range(vms_per_pm):
                cluster.add_vm(pm, spec=vm_spec)
        return cluster

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def native_pms(self) -> List[PhysicalMachine]:
        return [pm for pm in self.pms if not pm.vms]

    @property
    def virtualized_pms(self) -> List[PhysicalMachine]:
        return [pm for pm in self.pms if pm.vms]

    def native_contexts(self) -> List[NativeContext]:
        return [pm.native for pm in self.native_pms]

    def all_contexts(self) -> List[ExecutionContext]:
        contexts: List[ExecutionContext] = list(self.native_contexts())
        contexts.extend(self.vms)
        return contexts

    # ------------------------------------------------------------------
    # aggregate metrics
    # ------------------------------------------------------------------
    def mean_cpu_utilization(self) -> float:
        if not self.pms:
            return 0.0
        return sum(pm.cpu_pool.mean_utilization() for pm in self.pms) / len(self.pms)

    def instantaneous_utilization(self) -> float:
        if not self.pms:
            return 0.0
        return sum(pm.utilization() for pm in self.pms) / len(self.pms)

    def powered_servers(self) -> int:
        return sum(1 for pm in self.pms if pm.powered_on)

    def find_vm(self, name: str) -> VirtualMachine:
        for vm in self.vms:
            if vm.name == name:
                return vm
        raise KeyError(f"no VM named {name!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cluster(pms={len(self.pms)}, vms={len(self.vms)})"
