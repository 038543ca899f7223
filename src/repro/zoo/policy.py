"""The scheduling-policy framework: cluster views and the policy base.

:class:`repro.mapreduce.schedulers.SlotScheduler` answers one question
-- "which job gets the next free slot?" -- from nothing but the job
list.  That is enough for FIFO and fair sharing, but policies like DRF
need multi-resource demand, delay scheduling needs locality and the
offered tracker, and the job-driven algorithms need cluster capacity to
classify jobs by size.  :class:`SchedulingPolicy` extends the seam with
a :class:`ClusterView`: a read-only snapshot helper over the JobTracker
the policy is ordering for.

Determinism contract: a policy must be a pure function of the view and
its own configuration -- no wall clock, no RNG, no mutation of anything
reachable through the view.  Iteration orders exposed by the view are
stable (list order of ``trackers`` / ``active_jobs``), so same-seed
replays are byte-identical for every policy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.mapreduce.schedulers import (
    SKIP_JOB,
    SlotScheduler,
    running_task_counts,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.job import Job
    from repro.mapreduce.jobtracker import JobTracker
    from repro.mapreduce.task import TaskKind
    from repro.mapreduce.tracker import TaskTracker

__all__ = ["ClusterView", "SchedulingPolicy", "SKIP_JOB"]

#: per-slot CPU occupancy by benchmark resource class: what fraction of
#: a core a running task of that class holds on average over its
#: lifetime (I/O-bound tasks spend most of their slot time in disk and
#: network stages).  Used by multi-resource policies (DRF) to build
#: demand vectors; calibrated against the stage construction in task.py.
CPU_OCCUPANCY_BY_CLASS: Dict[str, float] = {
    "cpu": 1.0,
    "mixed": 0.5,
    "io": 0.2,
}


class ClusterView:
    """Read-only snapshot helpers over a JobTracker's cluster state.

    Built by the JobTracker once per slot offer (``_assign_one``) and
    handed to ``policy_aware`` schedulers.  Everything is computed
    lazily and cached for the offer, so cheap policies pay only for what
    they use.  Locality is the JobTracker's own rule:
    ``view.jt.local_task(tracker, tasks)``.
    """

    def __init__(self, jt: "JobTracker", kind: "TaskKind") -> None:
        self.jt = jt
        #: the task kind this round is assigning (MAP or REDUCE)
        self.kind = kind
        self.now = jt.sim.now
        self._running_counts: Optional[Dict[int, int]] = None
        self._capacity: Optional[Dict[str, float]] = None
        self._usage: Dict[int, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    # cluster state
    # ------------------------------------------------------------------
    @property
    def trackers(self) -> List["TaskTracker"]:
        return self.jt.trackers

    def total_slots(self, kind: Optional["TaskKind"] = None) -> int:
        """Configured slots of ``kind`` (default: this round's kind)
        across alive trackers."""
        from repro.mapreduce.task import TaskKind

        kind = kind or self.kind
        return sum(
            t.map_slots if kind is TaskKind.MAP else t.reduce_slots
            for t in self.trackers
            if t.alive
        )

    def capacity(self) -> Dict[str, float]:
        """Cluster capacity vector: total slots, CPU cores and memory.

        ``slots`` counts map + reduce slots together (one task occupies
        one slot regardless of kind), CPU is the core count behind the
        alive trackers' contexts, memory their combined capacity in MB.
        """
        if self._capacity is None:
            from repro.mapreduce.task import TaskKind

            slots = self.total_slots(TaskKind.MAP) + self.total_slots(
                TaskKind.REDUCE
            )
            cpu = 0.0
            mem = 0.0
            for tracker in self.trackers:
                if not tracker.alive:
                    continue
                ctx = tracker.context
                spec = getattr(ctx, "spec", None)
                cpu += spec.cpu_cores if spec is not None else ctx.pm.spec.cpu_cores
                mem += ctx.mem_capacity_mb
            self._capacity = {
                "slots": float(max(1, slots)),
                "cpu": max(1.0, cpu),
                "mem": max(1.0, mem),
            }
        return self._capacity

    # ------------------------------------------------------------------
    # per-job state
    # ------------------------------------------------------------------
    def running_tasks(self, job: "Job") -> int:
        """Currently running attempts of ``job`` (cached per offer)."""
        if self._running_counts is None:
            self._running_counts = running_task_counts(self.jt.active_jobs)
        return self._running_counts.get(job.job_id, 0)

    def demand(self, job: "Job") -> Dict[str, Dict[str, float]]:
        """Per-task resource demand of ``job`` by kind.

        ``{"map": {...}, "reduce": {...}}``, each with ``slots`` (always
        1), ``cpu`` (core occupancy, from the benchmark's resource
        class) and ``mem`` (the profile's per-task heap in MB).
        """
        profile = job.spec.profile
        cpu = CPU_OCCUPANCY_BY_CLASS.get(profile.resource_class, 0.5)
        return {
            "map": {"slots": 1.0, "cpu": cpu, "mem": profile.map_mem_mb},
            "reduce": {"slots": 1.0, "cpu": cpu, "mem": profile.reduce_mem_mb},
        }

    def usage(self, job: "Job") -> Dict[str, float]:
        """Resource vector ``job`` currently holds (running attempts x
        per-task demand), cached per offer."""
        cached = self._usage.get(job.job_id)
        if cached is not None:
            return cached
        from repro.mapreduce.task import TaskKind

        demand = self.demand(job)
        used = {"slots": 0.0, "cpu": 0.0, "mem": 0.0}
        for task in job.map_tasks + job.reduce_tasks:
            n = len(task.running_attempts)
            if not n:
                continue
            per = demand["map" if task.kind is TaskKind.MAP else "reduce"]
            for resource, amount in per.items():
                used[resource] += n * amount
        self._usage[job.job_id] = used
        return used

    def dominant_share(self, job: "Job") -> float:
        """DRF dominant share: max over resources of usage/capacity."""
        capacity = self.capacity()
        used = self.usage(job)
        return max(used[r] / capacity[r] for r in capacity)

    def remaining_work_mb(self, job: "Job") -> float:
        """Size-aware remaining work estimate in MB.

        Incomplete maps count their input blocks; incomplete reduces
        count their share of the job's total map output.  Purely
        structural (no timing state), so it is stable within a round.
        """
        maps_mb = sum(
            task.block.size_mb
            for task in job.map_tasks
            if not task.completed and task.block is not None
        )
        n_reduces = max(1, len(job.reduce_tasks))
        per_reduce_mb = job.map_output_mb / n_reduces
        reduces_mb = sum(
            per_reduce_mb for task in job.reduce_tasks if not task.completed
        )
        return maps_mb + reduces_mb


class SchedulingPolicy(SlotScheduler):
    """Base class for zoo policies: ordering plus per-offer task choice.

    Subclasses implement :meth:`order` (and may use the
    :class:`ClusterView` passed as ``view``) and can override
    :meth:`pick_task` to steer task selection per (job, tracker) offer:
    return a task to force it, ``None`` to accept the JobTracker's
    default locality preference, or :data:`SKIP_JOB` to decline the
    offer so the next job in the ordering is tried (and the JobTracker
    re-offers after a heartbeat if the whole round declines).
    """

    policy_aware = True

    #: JSON-able constructor kwargs, recorded by the registry so reports
    #: can say exactly how a policy instance was configured
    spec_kwargs: Dict[str, object] = {}

    def describe(self) -> str:
        """``name`` or ``name:k=v,...`` -- the registry spec that
        reconstructs this instance."""
        if not self.spec_kwargs:
            return self.name
        body = ",".join(
            f"{k}={v}" for k, v in sorted(self.spec_kwargs.items())
        )
        return f"{self.name}:{body}"
