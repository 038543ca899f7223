"""Slot schedulers and the one seam the JobTracker drives them through.

The paper's testbed runs the FairScheduler [5]; the RUBiS co-hosting
experiment (Figure 8(d)) uses the default FIFO order as its baseline.

Every slot offer -- one free tracker, one task kind -- goes through the
same two calls.  The JobTracker builds a :class:`ClusterView` for the
offer, :meth:`SlotScheduler.order` ranks the jobs, and
:meth:`SlotScheduler.pick_task` chooses, job by job in that order, the
task to launch on the offered tracker.  The base class's ``pick_task``
is the default pick (node-local, then host-local, then any task);
returning :data:`SKIP_JOB` instead passes the slot to the next job in
the ordering (the delay-scheduling primitive).

FIFO, Fair and Capacity only order.  Richer policies -- delay
scheduling, DRF, the job-driven algorithms -- live in :mod:`repro.zoo`
and subclass :class:`SlotScheduler` directly.

Determinism contract: a scheduler must be a pure function of the view
and its own configuration -- no wall clock, no RNG, no mutation of
anything reachable through the view -- so same-seed replays are
byte-identical for every policy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.mapreduce.task import TaskKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.job import Job
    from repro.mapreduce.jobtracker import JobTracker
    from repro.mapreduce.task import Task
    from repro.mapreduce.tracker import TaskTracker


class _SkipJob:
    """Sentinel: a policy declines this (job, tracker) slot offer."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SKIP_JOB"


#: returned by ``pick_task`` to pass the slot to the next job in order
SKIP_JOB = _SkipJob()

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
    handed to the scheduler's ``order`` and ``pick_task``.  Capacity
    and per-job usage are computed lazily and cached for the offer, so
    cheap schedulers pay only for what they use.  Locality is the
    JobTracker's own rule: ``view.jt.local_task(tracker, tasks)``.
    """

    def __init__(self, jt: "JobTracker", kind: TaskKind) -> None:
        self.jt = jt
        #: the task kind this offer is assigning (MAP or REDUCE)
        self.kind = kind
        self._capacity: Optional[Dict[str, float]] = None
        self._usage: Dict[int, Dict[str, float]] = {}

    def total_slots(self, kind: Optional[TaskKind] = None) -> int:
        """Configured slots of ``kind`` (default: this offer's kind)
        across alive trackers."""
        kind = kind or self.kind
        return sum(
            t.map_slots if kind is TaskKind.MAP else t.reduce_slots
            for t in self.jt.trackers
            if t.alive
        )

    def capacity(self) -> Dict[str, float]:
        """Cluster capacity vector: total slots, CPU cores and memory.

        ``slots`` counts map + reduce slots together (one task occupies
        one slot regardless of kind), CPU is the core count behind the
        alive trackers' contexts, memory their combined capacity in MB.
        """
        if self._capacity is None:
            slots = self.total_slots(TaskKind.MAP) + self.total_slots(
                TaskKind.REDUCE
            )
            cpu = 0.0
            mem = 0.0
            for tracker in self.jt.trackers:
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
        structural (no timing state), so it is stable within an offer.
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


class SlotScheduler:
    """Interface: rank jobs for a slot offer, then pick a task for it."""

    name = "abstract"

    def order(self, jobs: Sequence["Job"], view: ClusterView) -> List["Job"]:
        raise NotImplementedError

    def pick_task(
        self,
        job: "Job",
        tasks: List["Task"],
        tracker: "TaskTracker",
        kind: TaskKind,
        view: ClusterView,
    ) -> Union["Task", _SkipJob]:
        """Choose a task for ``tracker`` from ``job``'s runnable ``tasks``
        (never empty), or return :data:`SKIP_JOB` to decline the offer
        and let the next job in the ordering take the slot.

        The default pick: for a map, the first node-local, else the
        first host-local task (``JobTracker.local_task``); otherwise
        the first task.
        """
        if kind is TaskKind.MAP:
            task = view.jt.local_task(tracker, tasks)
            if task is not None:
                return task
        return tasks[0]


class FIFOScheduler(SlotScheduler):
    """Strict submission order: the oldest job takes every free slot."""

    name = "fifo"

    def order(self, jobs: Sequence["Job"], view=None) -> List["Job"]:
        return sorted(jobs, key=lambda j: (j.submit_time, j.job_id))


class FairScheduler(SlotScheduler):
    """Hadoop FairScheduler: favour the job furthest below fair share.

    Jobs are ranked by number of currently running tasks (fewest first),
    which equalizes slot allocation across concurrent jobs; submission
    order breaks ties, preserving FIFO behaviour for a single job.
    """

    name = "fair"

    def order(self, jobs: Sequence["Job"], view=None) -> List["Job"]:
        return sorted(
            jobs,
            key=lambda j: (j.running_attempt_count, j.submit_time, j.job_id),
        )


def _job_queue(job: "Job") -> str:
    """Queue routing: ``queue:name`` prefix on the job name, else default."""
    name = job.spec.name
    if ":" in name:
        return name.split(":", 1)[0]
    return "default"


class CapacityScheduler(SlotScheduler):
    """Hadoop CapacityScheduler: per-queue guaranteed shares.

    Queues are declared with fractional capacities (summing to <= 1).
    A job joins queue ``q`` by naming itself ``q:jobname``.  The next
    slot goes to the queue whose running-task share is furthest *below*
    its configured capacity; inside a queue, FIFO order applies.

    **Spill-over (elasticity).**  Capacities are guarantees, not caps:
    a queue with demand and no competition takes the whole cluster, and
    when several queues compete, any capacity a queue leaves unused
    flows to the queues furthest over their own guarantees -- the
    deficit ordering re-ranks every round, so a queue reclaiming its
    guarantee immediately pushes borrowers back.  This matches the real
    scheduler's elastic behaviour.

    **Unknown queues.**  Jobs naming a queue with no configured
    capacity are not starved: they compete with ``default_share`` as
    their token guarantee (constructor argument, default 5%), so they
    run whenever guaranteed queues leave capacity unused but yield as
    soon as a guaranteed queue falls below its share.
    """

    name = "capacity"

    def __init__(self, capacities: dict, default_share: float = 0.05) -> None:
        if not capacities:
            raise ValueError("need at least one queue")
        total = sum(capacities.values())
        if total > 1.0 + 1e-9 or any(c <= 0 for c in capacities.values()):
            raise ValueError("capacities must be positive and sum to <= 1")
        if not 0.0 <= default_share <= 1.0:
            raise ValueError("default_share must be in [0, 1]")
        self.capacities = dict(capacities)
        #: token guarantee for queues absent from ``capacities``
        self.default_share = default_share

    def order(self, jobs: Sequence["Job"], view=None) -> List["Job"]:
        total_running = sum(j.running_attempt_count for j in jobs) or 1
        by_queue: Dict[str, List["Job"]] = {}
        for job in jobs:
            by_queue.setdefault(_job_queue(job), []).append(job)

        def queue_deficit(queue: str) -> float:
            used = (
                sum(j.running_attempt_count for j in by_queue[queue])
                / total_running
            )
            guaranteed = self.capacities.get(queue, self.default_share)
            return used - guaranteed  # negative = below guarantee

        ordered: List["Job"] = []
        for queue in sorted(by_queue, key=lambda q: (queue_deficit(q), q)):
            ordered.extend(
                sorted(by_queue[queue], key=lambda j: (j.submit_time, j.job_id))
            )
        return ordered
