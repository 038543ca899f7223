"""The zoo's built-in scheduling policies.

Beyond the classic Hadoop trio (FIFO / Fair / Capacity, re-registered
here as specs so every study races them too), this module implements:

- ``delay``  -- delay scheduling (Zaharia et al., EuroSys'10): briefly
  decline non-local map offers to wait for a local slot.
- ``drf``    -- dominant-resource fairness (Ghodsi et al., NSDI'11)
  over (slots, cpu, mem) demand vectors.
- ``srtf``   -- shortest-remaining-work-first, the size-aware baseline.
- ``jobdriven-map`` / ``jobdriven-reduce`` -- adaptations of the
  job-driven task algorithms of arXiv 1808.08040: size-based job
  classification with eager small-job placement for the map side, and
  shuffle-readiness ranking for the reduce side.

Every policy is a :class:`~repro.mapreduce.schedulers.SlotScheduler`
(``delay`` and ``jobdriven-reduce`` through ``FairScheduler``, whose
ordering they use) and is deterministic: a pure function of the offer's
:class:`~repro.mapreduce.schedulers.ClusterView` plus bounded internal
counters (delay budgets), so same-seed replays are byte-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.mapreduce.schedulers import (
    SKIP_JOB,
    CapacityScheduler,
    ClusterView,
    FairScheduler,
    FIFOScheduler,
    SlotScheduler,
)
from repro.mapreduce.task import TaskKind
from repro.zoo.registry import register_policy

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.job import Job

__all__ = [
    "DelayScheduler",
    "DRFScheduler",
    "SRTFScheduler",
    "JobDrivenMapScheduler",
    "JobDrivenReduceScheduler",
]


def _alive_skips(skips: Dict[int, int], jobs: Sequence["Job"]) -> Dict[int, int]:
    """``skips`` without the counters of jobs that left the active set."""
    alive = {j.job_id for j in jobs}
    return {k: v for k, v in skips.items() if k in alive}


def _local_or_wait(skips: Dict[int, int], budget: int, job, tasks, tracker, view):
    """The skip-budget map offer: a node- or host-local task when one
    exists; otherwise decline (``SKIP_JOB``) until ``job`` has been
    skipped ``budget`` times in a row, then launch ``tasks[0]`` remotely
    and start a fresh wait.  ``skips`` (job_id -> consecutive declines)
    is updated in place."""
    local = view.jt.local_task(tracker, tasks)
    if local is not None:
        skips.pop(job.job_id, None)
        return local
    skipped = skips.get(job.job_id, 0)
    if skipped < budget:
        skips[job.job_id] = skipped + 1
        return SKIP_JOB
    skips.pop(job.job_id, None)
    return tasks[0]


class DelayScheduler(FairScheduler):
    """Delay scheduling: trade a short wait for map-input locality.

    Jobs are ordered fairly; per map offer the policy launches a node-
    or host-local task when one exists, and otherwise *declines* the
    slot (``SKIP_JOB``) until the job has been skipped ``skip_budget``
    times, at which point it accepts a remote task and resets the
    budget.  Reduce offers take the default pick (reduces have no input
    locality).
    """

    name = "delay"

    def __init__(self, skip_budget: int = 4) -> None:
        if skip_budget < 0:
            raise ValueError("skip_budget must be non-negative")
        self.skip_budget = skip_budget
        #: job_id -> consecutive non-local offers declined
        self._skips: Dict[int, int] = {}

    def order(self, jobs: Sequence["Job"], view: ClusterView) -> List["Job"]:
        self._skips = _alive_skips(self._skips, jobs)
        return super().order(jobs, view)

    def pick_task(self, job, tasks, tracker, kind, view):
        if kind is not TaskKind.MAP:
            return super().pick_task(job, tasks, tracker, kind, view)
        return _local_or_wait(
            self._skips, self.skip_budget, job, tasks, tracker, view
        )


class DRFScheduler(SlotScheduler):
    """Dominant-resource fairness over (slots, cpu, mem).

    Each job's demand vector comes from its benchmark profile (CPU
    occupancy by resource class, per-task heap); the next slot goes to
    the job with the smallest dominant share -- the max over resources
    of its usage divided by cluster capacity.  With one resource this
    degenerates to fair sharing; with heterogeneous demand (a CPU-bound
    PiEst racing an I/O-bound Sort) it equalizes *bottleneck* shares.
    """

    name = "drf"

    def order(self, jobs: Sequence["Job"], view: ClusterView) -> List["Job"]:
        return sorted(
            jobs,
            key=lambda j: (view.dominant_share(j), j.submit_time, j.job_id),
        )


class SRTFScheduler(SlotScheduler):
    """Shortest-remaining-work-first: the size-aware baseline.

    Ranks jobs by structural remaining work (incomplete map input MB
    plus incomplete reduces' shuffle shares) so small jobs cut ahead of
    large ones -- minimizing mean JCT at the cost of large-job latency.
    """

    name = "srtf"

    def order(self, jobs: Sequence["Job"], view: ClusterView) -> List["Job"]:
        return sorted(
            jobs,
            key=lambda j: (
                view.remaining_work_mb(j),
                j.submit_time,
                j.job_id,
            ),
        )


class JobDrivenMapScheduler(SlotScheduler):
    """Job-driven map-task scheduling (after arXiv 1808.08040).

    Jobs are classified by size against one *wave* of cluster map
    capacity: a job whose map count fits in a single wave is "small".
    Small jobs go first in the ordering and place eagerly (first
    runnable task, locality ignored -- their whole map phase fits one
    wave, so waiting costs more than remote reads).  Large jobs keep a
    locality preference backed by a short delay budget, since they will
    occupy the cluster long enough for local slots to appear.
    """

    name = "jobdriven-map"

    def __init__(self, large_job_skip_budget: int = 2) -> None:
        if large_job_skip_budget < 0:
            raise ValueError("large_job_skip_budget must be non-negative")
        self.large_job_skip_budget = large_job_skip_budget
        self._skips: Dict[int, int] = {}

    def _is_small(self, job: "Job", view: ClusterView) -> bool:
        wave = max(1, view.total_slots(TaskKind.MAP))
        return len(job.map_tasks) <= wave

    def order(self, jobs: Sequence["Job"], view: ClusterView) -> List["Job"]:
        self._skips = _alive_skips(self._skips, jobs)
        return sorted(
            jobs,
            key=lambda j: (
                0 if self._is_small(j, view) else 1,
                j.submit_time,
                j.job_id,
            ),
        )

    def pick_task(self, job, tasks, tracker, kind, view):
        if kind is not TaskKind.MAP:
            return super().pick_task(job, tasks, tracker, kind, view)
        if self._is_small(job, view):
            return tasks[0]
        return _local_or_wait(
            self._skips, self.large_job_skip_budget, job, tasks, tracker, view
        )


class JobDrivenReduceScheduler(FairScheduler):
    """Job-driven reduce-task scheduling (after arXiv 1808.08040).

    Reduce slots go to the job whose pending reduces have the most
    shuffle output already waiting (largest accumulated backlog first):
    launching those reduces overlaps their copy phase with the maps
    still running, while a reduce with no backlog would only occupy the
    slot idling.  Map offers keep the FairScheduler ordering.
    """

    name = "jobdriven-reduce"

    @staticmethod
    def _readiness(job: "Job") -> float:
        """Largest shuffle backlog (MB) over the job's unscheduled
        reduces; 0 when nothing is waiting to be fetched."""
        best = 0.0
        for task in job.reduce_tasks:
            if task.scheduled:
                continue
            backlog = sum(task.shuffle_backlog.values())
            if backlog > best:
                best = backlog
        return best

    def order(self, jobs: Sequence["Job"], view: ClusterView) -> List["Job"]:
        if view.kind is not TaskKind.REDUCE:
            return super().order(jobs, view)
        return sorted(
            jobs,
            key=lambda j: (-self._readiness(j), j.submit_time, j.job_id),
        )


# ----------------------------------------------------------------------
# registration: every spec the zoo can build
# ----------------------------------------------------------------------
def _capacity_factory(default_share: float = 0.05, **capacities: float) -> SlotScheduler:
    """``capacity`` spec: queue capacities as kwargs, e.g.
    ``capacity:prod=0.6,batch=0.3``.  With no queues given, uses the
    study workloads' prod/batch split."""
    if not capacities:
        capacities = {"prod": 0.6, "batch": 0.3}
    return CapacityScheduler(capacities, default_share=default_share)


register_policy("fifo", FIFOScheduler)
register_policy("fair", FairScheduler)
register_policy("capacity", _capacity_factory)
register_policy("delay", DelayScheduler)
register_policy("drf", DRFScheduler)
register_policy("srtf", SRTFScheduler)
register_policy("jobdriven-map", JobDrivenMapScheduler)
register_policy("jobdriven-reduce", JobDrivenReduceScheduler)
