"""Phase II Interference Prevention System (Section III-B2).

The IPS watches interactive services through the
:class:`~repro.interactive.sla.SLAMonitor`, which hands it each service
found above its SLA.  The Arbiter (Algorithm 3) then mitigates:

1. rank the batch VMs collocated with the suffering service by the
   DRM's interference score of the attempts running on them
   (:meth:`~repro.core.drm.DynamicResourceManager.attempts_on`, the
   VM's own TaskTrackers);
2. escalate through an actuation ladder on the hosting VMs --
   **throttle** (a blkio-style I/O limit plus a CPU cap, set on the VM
   directly), then **pause**, then **live-migrate** the offending VM to
   the best-fit host (BestFit bin-packing over spare capacity; Min-Min
   ordering so the least-interfering work keeps running in place);
3. once the service stays healthy for :data:`COOLDOWN_POLLS` consecutive
   polls, de-escalate and return resources to the batch jobs.

Every rung is a :class:`~repro.obs.Decision` of loop ``"ips"`` on
``sim.obs`` (``throttle``, ``pause``, ``migrate`` or ``release``; target
the VM; inputs the violating ``service``, the VM's ``score`` and the
limits or destination).  The release that follows a finished migration
is not logged: it undoes the migrated VM's limits as bookkeeping.

Pausing or migrating never breaks MapReduce correctness: stalled tasks
simply look like stragglers and speculative execution re-runs them
elsewhere if needed, exactly as the paper argues.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.cluster.machine import PhysicalMachine
from repro.core.drm import DynamicResourceManager
from repro.interactive.service import InteractiveService
from repro.interactive.sla import SLAMonitor
from repro.sim.engine import Simulator
from repro.virt.migration import LiveMigration, MigrationRecord
from repro.virt.vm import VirtualMachine

#: the throttle rung: a batch VM's I/O limit and CPU cap
THROTTLE_IO_MBPS = 8.0
THROTTLE_CPU_FRACTION = 0.4
#: consecutive healthy SLA polls before one restriction is released
COOLDOWN_POLLS = 3


class Arbiter:
    """Placement and ordering of Algorithm 3: BestFit bin-packing [12]
    and Min-Min order.  FirstFit and WorstFit, for comparison, live in
    the bin-packing ablation (``benchmarks/test_ablations.py``).
    """

    @staticmethod
    def _feasible(
        vm: VirtualMachine,
        candidates: List[PhysicalMachine],
        forbidden: Set[str],
    ) -> List[tuple]:
        """[(leftover_vcpu, pm)] for every host the VM fits on."""
        out = []
        for pm in candidates:
            if pm.name in forbidden or pm is vm.pm or not pm.powered_on:
                continue
            used = sum(guest.spec.cpu_cores for guest in pm.vms)
            left = pm.spec.cpu_cores - used - vm.spec.cpu_cores
            if left < 0:
                continue
            out.append((left, pm))
        return out

    @staticmethod
    def best_fit(
        vm: VirtualMachine,
        candidates: List[PhysicalMachine],
        forbidden: Set[str],
    ) -> Optional[PhysicalMachine]:
        """BestFit bin-packing: the allowed host whose spare vCPU
        capacity after placing ``vm`` is smallest but non-negative."""
        feasible = Arbiter._feasible(vm, candidates, forbidden)
        if not feasible:
            return None
        return min(feasible, key=lambda pair: (pair[0], pair[1].name))[1]

    @staticmethod
    def min_min_order(scored: List[tuple]) -> List[tuple]:
        """Min-Min: handle the least-interfering entries first so the
        cheapest mitigations are tried before drastic ones.

        ``scored`` is ``[(score, item), ...]``; returns ascending."""
        return sorted(scored, key=lambda pair: pair[0])


class InterferencePreventionSystem:
    """SLA guardian over one virtual cluster."""

    def __init__(
        self,
        sim: Simulator,
        monitor: SLAMonitor,
        drm: DynamicResourceManager,
        pms: List[PhysicalMachine],
        max_migrations: int = 50,
        datanode_payload: Optional[Callable[[VirtualMachine], float]] = None,
    ) -> None:
        self.sim = sim
        self.monitor = monitor
        self.drm = drm
        self.pms = list(pms)
        self.max_migrations = max_migrations
        self.datanode_payload = datanode_payload or (lambda vm: 0.0)
        self.migrations: List[MigrationRecord] = []
        self._throttled: Set[str] = set()
        self._paused: Set[str] = set()
        self._migrating: Set[str] = set()
        self._healthy_polls: Dict[str, int] = {}
        monitor.on_violation(self._on_violation)
        self._cooldown_cancel = sim.call_every(monitor.poll_s, self._cooldown_tick)

    def stop(self) -> None:
        self._cooldown_cancel()

    # ------------------------------------------------------------------
    # batch-VM discovery
    # ------------------------------------------------------------------
    def _batch_vms_near(self, service: InteractiveService) -> List[VirtualMachine]:
        service_vms = set(service.vms)
        hosts = {vm.pm for vm in service.vms}
        batch = []
        for vm in self.drm.vms:
            if vm in service_vms or vm.name in self._migrating:
                continue
            if vm.pm in hosts:
                batch.append(vm)
        return batch

    def _vm_interference(self, vm: VirtualMachine) -> float:
        attempts = self.drm.attempts_on(vm)
        if not attempts:
            # idle guests still hold memory but exert no rate pressure
            return 0.0
        return sum(self.drm.interference_score(a) for a in attempts)

    # ------------------------------------------------------------------
    # the mitigation ladder
    # ------------------------------------------------------------------
    def _on_violation(self, service: InteractiveService) -> None:
        self._healthy_polls[service.name] = 0
        batch = self._batch_vms_near(service)
        if not batch:
            return
        scored = Arbiter.min_min_order(
            [(self._vm_interference(vm), vm) for vm in batch]
        )
        # the *most* interfering VM (last in Min-Min order) is mitigated;
        # the least-interfering ones keep running in place
        for score, vm in reversed(scored):
            if vm.name not in self._throttled:
                vm.set_io_limit(THROTTLE_IO_MBPS)
                vm.set_cpu_fraction(THROTTLE_CPU_FRACTION)
                self._throttled.add(vm.name)
                self.sim.obs.decide(
                    "ips", "throttle", vm.name, service=service.name,
                    score=score, io_mbps=THROTTLE_IO_MBPS,
                    cpu_fraction=THROTTLE_CPU_FRACTION,
                )
                return
        for score, vm in reversed(scored):
            if vm.name not in self._paused:
                vm.pause()
                self._paused.add(vm.name)
                self.sim.obs.decide(
                    "ips", "pause", vm.name, service=service.name, score=score
                )
                return
        # everything nearby is already throttled and paused: migrate the
        # most interfering VM away to the best-fit host
        if len(self.migrations) + len(self._migrating) >= self.max_migrations:
            return
        forbidden = {vm.pm.name for vm in service.vms}
        for score, vm in reversed(scored):
            target = Arbiter.best_fit(vm, self.pms, forbidden)
            if target is None:
                continue
            self._begin_migration(service, vm, target, score)
            return

    def _begin_migration(
        self,
        service: InteractiveService,
        vm: VirtualMachine,
        target: PhysicalMachine,
        score: float,
    ) -> None:
        self._migrating.add(vm.name)
        if vm.paused:
            # resume so pre-copy can converge; the throttle stays on
            vm.resume()
            self._paused.discard(vm.name)

        def finished(record: MigrationRecord) -> None:
            self._migrating.discard(vm.name)
            self.migrations.append(record)
            # the VM is now on an unloaded host: release its limits
            self._release(vm)

        LiveMigration(
            self.sim,
            vm.pm.fabric,
            vm,
            target,
            on_complete=finished,
            extra_data_mb=self.datanode_payload(vm),
        )
        self.sim.obs.decide(
            "ips", "migrate", vm.name, service=service.name, score=score,
            destination=target.name,
        )

    # ------------------------------------------------------------------
    # de-escalation
    # ------------------------------------------------------------------
    def _cooldown_tick(self) -> None:
        for service in self.monitor.services:
            name = service.name
            if service.sla_violated:
                self._healthy_polls[name] = 0
                continue
            self._healthy_polls[name] = self._healthy_polls.get(name, 0) + 1
            if self._healthy_polls[name] < COOLDOWN_POLLS:
                continue
            # healthy long enough: release one restriction near this
            # service per tick (gentle, so we do not re-trigger)
            for vm in self._batch_vms_near(service):
                if vm.name in self._paused:
                    vm.resume()
                    self._paused.discard(vm.name)
                    self.sim.obs.decide(
                        "ips", "release", vm.name, service=name, lifted="pause"
                    )
                    self._healthy_polls[name] = 0
                    return
            for vm in self._batch_vms_near(service):
                if vm.name in self._throttled:
                    self._release(vm)
                    self.sim.obs.decide(
                        "ips", "release", vm.name, service=name, lifted="throttle"
                    )
                    self._healthy_polls[name] = 0
                    return

    def _release(self, vm: VirtualMachine) -> None:
        vm.set_io_limit(None)
        vm.set_cpu_fraction(1.0)
        if vm.paused:
            vm.resume()
        self._throttled.discard(vm.name)
        self._paused.discard(vm.name)
