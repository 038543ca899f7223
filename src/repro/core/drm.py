"""Phase II Dynamic Resource Manager (Section III-B1).

Architecture mirrors the paper (and MROrchestrator [31]):

- Each virtual node has a **Local Resource Manager** (LRM), a
  *Resource Profiler* that samples each running attempt's CPU, disk and
  network rates every epoch and keeps the last :data:`SAMPLE_WINDOW`
  samples; the IPS ranks co-located VMs by them
  (:meth:`DynamicResourceManager.interference_score`).  The GRM reads a
  VM's attempts straight off the VM's own TaskTrackers
  (:meth:`DynamicResourceManager.attempts_on`), never the whole fleet.
- The **Global Resource Manager** (GRM) runs a *Contention Detector*
  (classifies tasks/VMs as resource-deficit or resource-hogging from
  the LRM feedback) and a *Performance Balancer* that actuates:

  - **CPU**: work-conserving uncapping -- grant a starved VM idle host
    cycles beyond its vCPU allocation; revert toward fair caps when the
    host saturates.
  - **Memory**: ballooning -- move guest memory from VMs with headroom
    to VMs paging under pressure on the same host.
  - **I/O**: blkio weight boosts for tail tasks (a job's last wave) and
    for I/O-deficit VMs sharing a disk with streaming hogs.
  - **Stragglers**: an attempt whose ``duration / progress`` projection
    runs past 1.3x its phase's mean completed duration gets its guest
    uncapped and its blkio weight raised, in place.

Every actuation is a :class:`~repro.obs.Decision` of loop ``"drm"`` on
``sim.obs`` (one of ``cpu-uncap``, ``cpu-recap``, ``balloon``,
``io-weight``, ``straggler-cpu``, ``straggler-io``; target the VM).

Each dimension can be enabled independently, which is exactly the
CPU / Memory / I/O / CPU+Memory+I/O ablation of Figures 8(b), 8(c).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.mapreduce.jobtracker import JobTracker
from repro.mapreduce.task import TaskAttempt, peer_mean_duration
from repro.mapreduce.tracker import TaskTracker
from repro.sim.engine import Simulator
from repro.virt.vm import VirtualMachine

#: samples an LRM keeps: the window :meth:`interference_score` ranks over
SAMPLE_WINDOW = 50
#: blkio weight a tail or straggling attempt's VM gets (fair is 1.0)
IO_BOOST = 5.0
#: most guest memory one balloon move shifts between co-located VMs
BALLOON_STEP_MB = 128.0


@dataclass
class TaskUsageSample:
    """One Resource Profiler observation of a running attempt."""

    attempt_id: int
    cpu_rate: float
    disk_rate: float
    net_rate: float


class LocalResourceManager:
    """The Resource Profiler of one virtual node."""

    def __init__(self, vm: VirtualMachine) -> None:
        self.vm = vm
        #: the last SAMPLE_WINDOW samples, oldest first
        self.samples: Deque[TaskUsageSample] = deque(maxlen=SAMPLE_WINDOW)

    def sample(self, attempts: List[TaskAttempt]) -> None:
        for attempt in attempts:
            cpu_rate = sum(
                e.rate for e in attempt._handles
                if getattr(e, "pool", None) is self.vm.pm.cpu_pool and not e.done
            )
            # disk pressure includes page-cache traffic (memio): cached
            # streams still evict the interactive tenants' working sets
            disk_rate = sum(
                e.rate for e in attempt._handles
                if getattr(e, "pool", None)
                in (self.vm.pm.disk_pool, self.vm.pm.memio_pool)
                and not e.done
            )
            # shuffle and HDFS flows (handles with src/dst endpoints)
            net_rate = sum(
                h.rate for h in attempt._handles
                if hasattr(h, "src") and not h.done
            )
            self.samples.append(
                TaskUsageSample(attempt.attempt_id, cpu_rate, disk_rate, net_rate)
            )


class DynamicResourceManager:
    """The GRM + all LRMs, driving one virtual MapReduce cluster."""

    def __init__(
        self,
        sim: Simulator,
        jt: JobTracker,
        vms: List[VirtualMachine],
        manage_cpu: bool = True,
        manage_memory: bool = True,
        manage_io: bool = True,
        epoch_s: float = 5.0,
        tail_fraction: float = 0.25,
    ) -> None:
        if epoch_s <= 0:
            raise ValueError("epoch must be positive")
        self.sim = sim
        self.jt = jt
        self.vms = list(vms)
        self.manage_cpu = manage_cpu
        self.manage_memory = manage_memory
        self.manage_io = manage_io
        self.epoch_s = epoch_s
        self.tail_fraction = tail_fraction
        self.lrms: Dict[str, LocalResourceManager] = {
            vm.name: LocalResourceManager(vm) for vm in self.vms
        }
        #: each VM's TaskTrackers in fleet order; a tracker never changes
        #: context and a migrating VM keeps its identity, so this holds
        self._trackers: Dict[str, List[TaskTracker]] = {
            vm.name: [] for vm in self.vms
        }
        for tracker in jt.trackers:
            ctx = tracker.context
            if isinstance(ctx, VirtualMachine) and ctx.name in self._trackers:
                self._trackers[ctx.name].append(tracker)
        self._cancel: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._cancel is not None:
            raise RuntimeError("DRM already started")
        if self.manage_memory:
            # replace stock Hadoop's fixed per-slot heaps with
            # actual-need allocation (MROrchestrator's memory manager)
            self.jt.dynamic_memory = True
        self._cancel = self.sim.call_every(self.epoch_s, self._epoch)

    def stop(self) -> None:
        if self._cancel is not None:
            self._cancel()
            self._cancel = None

    # ------------------------------------------------------------------
    # the control loop
    # ------------------------------------------------------------------
    def _epoch(self) -> None:
        obs = self.sim.obs
        obs.metrics.counter("drm.epochs").inc()
        with obs.tracer.span("drm.epoch", category="scheduler", track="drm"):
            self._run_epoch()

    def attempts_on(self, vm: VirtualMachine) -> List[TaskAttempt]:
        """The attempts running on ``vm``'s TaskTrackers, in fleet order."""
        return [a for t in self._trackers[vm.name] for a in t.running]

    def _run_epoch(self) -> None:
        # LRM phase: profile everything running.  The snapshot serves
        # the whole epoch: _balance_cpu's actuations can complete
        # attempts at this instant, and a re-read would see fewer.
        by_vm = {vm.name: self.attempts_on(vm) for vm in self.vms}
        for vm in self.vms:
            self.lrms[vm.name].sample(by_vm[vm.name])
        # GRM phase: detect contention and rebalance
        if self.manage_cpu:
            self._balance_cpu(by_vm)
        if self.manage_memory:
            self._balance_memory()
        if self.manage_io:
            self._balance_io()
        if self.manage_cpu or self.manage_io:
            self._boost_stragglers()

    # -- CPU: work-conserving uncapping -----------------------------------
    def _balance_cpu(self, by_vm: Dict[str, List[TaskAttempt]]) -> None:
        pms = {vm.pm for vm in self.vms}
        for pm in pms:
            batch_vms = [vm for vm in pm.vms if vm.name in self.lrms]
            if not batch_vms:
                continue
            slack = pm.spec.cpu_cores - pm.cpu_pool.total_rate
            if slack > 0.1 * pm.spec.cpu_cores:
                # contention detector: a VM whose tasks are pinned at
                # their cap is CPU-deficit; grant it idle cycles
                for vm in batch_vms:
                    if not by_vm.get(vm.name):
                        continue
                    starved = any(
                        not e.done and e.rate >= e.cap - 1e-6 and e.cap > 0
                        for e in vm._cpu_entries
                    )
                    if starved and vm.cpu_fraction < 2.0:
                        vm.set_cpu_fraction(2.0)
                        self.sim.obs.decide(
                            "drm", "cpu-uncap", vm.name,
                            cpu_fraction=vm.cpu_fraction,
                        )
            else:
                # host saturated: converge back to fair 1.0 caps
                for vm in batch_vms:
                    if vm.cpu_fraction > 1.0:
                        vm.set_cpu_fraction(max(1.0, vm.cpu_fraction - 0.25))
                        self.sim.obs.decide(
                            "drm", "cpu-recap", vm.name,
                            cpu_fraction=vm.cpu_fraction,
                        )

    # -- Memory: ballooning -------------------------------------------------
    def _balance_memory(self) -> None:
        pms = {vm.pm for vm in self.vms}
        for pm in pms:
            guests = [vm for vm in pm.vms if vm.name in self.lrms]
            if len(guests) < 2:
                continue
            pressured = [
                vm for vm in guests if vm.mem_used_mb > vm.mem_capacity_mb * 1.02
            ]
            donors = [
                vm for vm in guests if vm.mem_used_mb < vm.mem_capacity_mb * 0.7
            ]
            for needy in pressured:
                if not donors:
                    break
                donor = max(donors, key=lambda v: v.mem_capacity_mb - v.mem_used_mb)
                headroom = donor.mem_capacity_mb - donor.mem_used_mb
                step = min(BALLOON_STEP_MB, headroom * 0.5)
                if step < 16:
                    continue
                donor.balloon_to(donor.mem_capacity_mb - step)
                needy.balloon_to(needy.mem_capacity_mb + step)
                self.sim.obs.decide(
                    "drm", "balloon", needy.name, mb=step, donor=donor.name
                )

    # -- I/O: blkio weights for tails and deficits ---------------------------
    def _balance_io(self) -> None:
        tail_vms = set()
        for job in self.jt.active_jobs:
            for kind_tasks in (job.map_tasks, job.reduce_tasks):
                if not kind_tasks:
                    continue
                remaining = [t for t in kind_tasks if not t.completed]
                if not remaining:
                    continue
                if len(remaining) <= max(1, int(self.tail_fraction * len(kind_tasks))):
                    for task in remaining:
                        for attempt in task.running_attempts:
                            ctx = attempt.tracker.context
                            if isinstance(ctx, VirtualMachine):
                                tail_vms.add(ctx.name)
        for vm in self.vms:
            target = IO_BOOST if vm.name in tail_vms else 1.0
            if abs(vm.io_weight - target) > 1e-9:
                vm.set_io_weight(target)
                self.sim.obs.decide("drm", "io-weight", vm.name, io_weight=target)
            # tail tasks also deserve spare CPU to finish the job sooner
            if self.manage_cpu and vm.name in tail_vms and vm.cpu_fraction < 2.0:
                slack = vm.pm.spec.cpu_cores - vm.pm.cpu_pool.total_rate
                if slack > 0.2:
                    vm.set_cpu_fraction(2.0)

    # -- stragglers: accelerate resource-deficit tasks in place ------------
    def _boost_stragglers(self) -> None:
        """Give projected-late attempts extra CPU/IO on their own host.

        The bottleneck mitigation of Section III-B1: an attempt whose
        projected duration exceeds 1.3x the mean duration of its phase's
        completed tasks is a straggler (the projection and the mean are
        the speculation rule's, :mod:`repro.mapreduce.task`).  Instead of
        waiting for speculative re-execution, its guest is uncapped
        (CPU) and its blkio weight raised (I/O), which usually resolves
        the straggler where it is.
        """
        for job in self.jt.active_jobs:
            for kind_tasks in (job.map_tasks, job.reduce_tasks):
                mean = peer_mean_duration(kind_tasks)
                if mean is None:
                    continue
                for task in kind_tasks:
                    for attempt in task.running_attempts:
                        ctx = attempt.tracker.context
                        if not isinstance(ctx, VirtualMachine):
                            continue
                        if ctx.name not in self.lrms:
                            continue
                        projected = attempt.projected_duration()
                        if projected <= 1.3 * mean:
                            continue
                        if self.manage_cpu and ctx.cpu_fraction < 2.0:
                            ctx.set_cpu_fraction(2.0)
                            self.sim.obs.decide(
                                "drm", "straggler-cpu", ctx.name,
                                task=attempt.task.name,
                                projected_s=projected, mean_s=mean,
                            )
                        if self.manage_io and ctx.io_weight < IO_BOOST:
                            ctx.set_io_weight(IO_BOOST)
                            self.sim.obs.decide(
                                "drm", "straggler-io", ctx.name,
                                task=attempt.task.name,
                                projected_s=projected, mean_s=mean,
                            )

    # ------------------------------------------------------------------
    # the query the IPS ranks by
    # ------------------------------------------------------------------
    def interference_score(self, attempt: TaskAttempt) -> float:
        """How much I/O+CPU pressure this attempt puts on its host.

        The Arbiter ranks collocated tasks by this score when deciding
        what to throttle, pause or migrate (Algorithm 3, step 2).
        """
        ctx = attempt.tracker.context
        lrm = self.lrms.get(getattr(ctx, "name", ""))
        if lrm is None:
            return 0.0
        recent = [s for s in lrm.samples if s.attempt_id == attempt.attempt_id]
        if not recent:
            return 0.0
        pm = ctx.pm
        # peak over the recent window: attempts alternate between CPU,
        # disk and network stages, so a single instantaneous sample
        # under-reports a bursty I/O hog
        disk_part = max(s.disk_rate for s in recent) / max(pm.spec.disk_mbps, 1e-9)
        cpu_part = max(s.cpu_rate for s in recent) / max(pm.spec.cpu_cores, 1e-9)
        net_part = max(s.net_rate for s in recent) / max(pm.spec.net_mbps, 1e-9)
        # disk hurts interactive latency most; network next; CPU least
        return 2.0 * disk_part + cpu_part + net_part
