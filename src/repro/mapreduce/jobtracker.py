"""The JobTracker: job lifecycle, slot dispatch, locality, speculation."""

from __future__ import annotations

import itertools
from bisect import bisect_left
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.hdfs.filesystem import HDFS
from repro.mapreduce.job import Job, JobSpec, JobState
from repro.mapreduce.schedulers import (
    SKIP_JOB,
    ClusterView,
    FairScheduler,
    SlotScheduler,
)
from repro.mapreduce.task import (
    MERGE_IO_FACTOR,
    Task,
    TaskAttempt,
    TaskKind,
    peer_mean_duration,
)
from repro.mapreduce.tracker import TaskTracker
from repro.sim.engine import Simulator
from repro.sim.network import NetworkFabric
from repro.virt.overheads import DEFAULT_OVERHEADS, OverheadModel

#: fraction of a job's maps that must complete before its reduces may
#: launch (Hadoop's mapred.reduce.slowstart.completed.maps)
SLOWSTART = 0.05
#: delay from a slot release or submission to the dispatch round it
#: triggers: the heartbeat latency of the real system
DISPATCH_DELAY_S = 0.1
#: half-width of the uniform spread in every attempt's work multiplier
JITTER = 0.18


class _Round:
    """One dispatch round's state (see :meth:`JobTracker._dispatch`)."""

    __slots__ = ("load_by_pm", "runnable", "cursor", "releases")

    def __init__(self, load_by_pm: Dict[int, int], releases: int) -> None:
        #: id(PM) -> attempts running there; PMs with none may be absent
        self.load_by_pm = load_by_pm
        #: (job id, kind) -> the job's unscheduled tasks of that kind
        self.runnable: Dict[Tuple[int, TaskKind], List[Task]] = {}
        #: kind -> position of the name-order cursor
        self.cursor = {TaskKind.MAP: 0, TaskKind.REDUCE: 0}
        #: the JobTracker's release count the cursors were last valid for
        self.releases = releases


class _Locality:
    """One job's map tasks, listed by map index under each context that
    holds their input: dpark's ``pendingTasksForHost``.

    The lists may overstate but never miss a pending task: they keep
    scheduled tasks (the walks skip them, so a task that is pending
    again is still listed), and a replica recorded later adds its
    context (``NameNode.on_replica``).  A replica lost to decommission
    or deletion is caught by the walks, which check each candidate
    against the NameNode's records.
    """

    __slots__ = ("maps", "by_block", "by_context")

    def __init__(self, job: Job, namenode) -> None:
        self.maps = job.map_tasks
        #: block id -> the index of the map task reading it
        self.by_block: Dict[int, int] = {t.block.block_id: t.index for t in self.maps}
        #: holder context -> indexes of the maps with a replica there, ascending
        self.by_context: Dict[object, List[int]] = {}
        for task in self.maps:
            self.add(task.index, namenode.replica_holders(task.block))

    def add(self, index: int, holders: Iterable) -> None:
        """List map ``index`` under each holder's context (once)."""
        by_context = self.by_context
        for holder in holders:
            queue = by_context.get(holder.context)
            if queue is None:
                by_context[holder.context] = [index]
                continue
            i = bisect_left(queue, index)
            if i == len(queue) or queue[i] != index:
                queue.insert(i, index)

    def first(
        self,
        context,
        tasks: List[Task],
        holds: Callable[[Task], bool],
        before: Optional[Task] = None,
    ) -> Optional[Task]:
        """The first unscheduled map listed under ``context`` that is one
        of ``tasks`` and ``holds`` a replica where asked, and comes
        before ``before`` (if given)."""
        maps = self.maps
        for i in self.by_context.get(context, ()):
            if before is not None and i >= before.index:
                break
            task = maps[i]
            if not task.scheduled and holds(task) and task in tasks:
                return task
        return None


class JobTracker:
    """Central coordinator, as in Hadoop 0.22 (pre-YARN).

    Event-driven rather than heartbeat-driven: every slot release or
    submission triggers a dispatch round after :data:`DISPATCH_DELAY_S`
    seconds, which stands in for the heartbeat latency of the real
    system while keeping the simulation deterministic.
    """

    def __init__(
        self,
        sim: Simulator,
        fs: HDFS,
        fabric: NetworkFabric,
        trackers: List[TaskTracker],
        scheduler: Optional[SlotScheduler] = None,
        overheads: OverheadModel = DEFAULT_OVERHEADS,
        speculation: bool = True,
        speculation_factor: float = 1.5,
        speculation_interval: float = 15.0,
        task_startup_cpu_s: float = 1.5,
        straggler_prob: float = 0.06,
    ) -> None:
        if not trackers:
            raise ValueError("need at least one TaskTracker")
        self.sim = sim
        self.fs = fs
        self.fabric = fabric
        self.trackers = list(trackers)
        #: the fleet in name order; the sort is stable, so trackers that
        #: share a name keep their list order, as ``min()`` ties do
        self._by_name = sorted(self.trackers, key=attrgetter("name"))
        #: trackers with running attempts (an ordered set), kept by
        #: ``_launch`` and the two release callbacks
        self._busy: Dict[TaskTracker, None] = {}
        #: attempts released so far; a round's cursors restart when it moves
        self._releases = 0
        self.scheduler = scheduler or FairScheduler()
        self.overheads = overheads
        self.speculation = speculation
        self.speculation_factor = speculation_factor
        #: JVM spawn + task-init CPU cost charged to every attempt
        self.task_startup_cpu_s = task_startup_cpu_s
        #: stock Hadoop reserves a fixed child-JVM heap per slot
        #: (mapred.child.java.opts); the Phase II DRM's memory manager
        #: flips ``dynamic_memory`` on to allocate tasks' actual needs
        self.slot_heap_mb = 400.0
        self.dynamic_memory = False
        #: per-attempt work variability (data skew, slow disks, JVM GC):
        #: every attempt draws a work multiplier; with ``straggler_prob``
        #: it draws an extra 1.5-2.5x straggler factor.  This is what
        #: speculation and the DRM's tail boosts push against.
        self.straggler_prob = straggler_prob
        self._io_cached: Dict[int, bool] = {}
        #: job id -> the active job's locality index (see local_task)
        self._locality: Dict[int, _Locality] = {}
        fs.namenode.on_replica = self._replica_recorded
        self.active_jobs: List[Job] = []
        self.finished_jobs: List[Job] = []
        self._job_ids = itertools.count(1)
        self._attempt_ids = itertools.count(1)
        self._callbacks: Dict[int, Callable[[Job], None]] = {}
        self._dispatch_pending = False
        self._policy_skipped = False
        self.speculative_launched = 0
        if speculation:
            self._spec_cancel = sim.call_every(
                speculation_interval, self._speculation_sweep
            )
        else:
            self._spec_cancel = None

    def next_attempt_id(self) -> int:
        """Sequence for :class:`~repro.mapreduce.task.TaskAttempt` ids."""
        return next(self._attempt_ids)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: JobSpec,
        on_complete: Optional[Callable[[Job], None]] = None,
        input_file: Optional[str] = None,
    ) -> Job:
        """Submit a job; its input is preloaded into HDFS unless an
        existing ``input_file`` is given."""
        job = Job(next(self._job_ids), spec, self.sim.now)
        if input_file is None:
            input_file = f"{spec.name}-input-{job.job_id}"
            block_size = (
                spec.input_mb / spec.num_maps if spec.num_maps else None
            )
            self.fs.preload_file(input_file, spec.input_mb, block_size)
        job.input_file = input_file
        blocks = self.fs.namenode.blocks_of(input_file)
        job.map_tasks = [
            Task(job, TaskKind.MAP, i, block) for i, block in enumerate(blocks)
        ]
        n_reduces = (
            spec.num_reducers
            if spec.num_reducers is not None
            else len(self.trackers)
        )
        job.reduce_tasks = [Task(job, TaskKind.REDUCE, i) for i in range(n_reduces)]
        for task in job.reduce_tasks:
            task.maps_pending = len(job.map_tasks)
        # blame bookkeeping: maps are runnable from submission; reduces
        # only once the slowstart fraction of maps completes (see
        # ``_on_map_done``), except when there are no maps to wait for
        for task in job.map_tasks:
            task.runnable_since = self.sim.now
        if not job.map_tasks:
            for task in job.reduce_tasks:
                task.runnable_since = self.sim.now
        job.state = JobState.RUNNING
        self._locality[job.job_id] = _Locality(job, self.fs.namenode)
        self.active_jobs.append(job)
        if on_complete is not None:
            self._callbacks[job.job_id] = on_complete
        obs = self.sim.obs
        obs.metrics.counter("jobs.submitted").inc()
        if obs.tracer.enabled:
            job.obs_span = obs.tracer.begin(
                f"job:{spec.name}#{job.job_id}",
                category="job",
                track="jobs",
                job_id=job.job_id,
                benchmark=spec.profile.name,
                input_gb=spec.input_gb,
                maps=len(job.map_tasks),
                reduces=len(job.reduce_tasks),
            )
        self.request_dispatch()
        return job

    def on_complete(self, job_id: int, fn: Callable[[Job], None]) -> None:
        """Register ``fn`` to run when job ``job_id`` finishes.

        The public successor to poking ``_callbacks`` directly: callbacks
        compose (several registrations all fire, in registration order,
        after any ``submit(on_complete=...)`` callback), and registering
        against an already finished job fires immediately.  Unknown job
        ids raise ``KeyError``.
        """
        for job in self.finished_jobs:
            if job.job_id == job_id:
                fn(job)
                return
        if all(job.job_id != job_id for job in self.active_jobs):
            raise KeyError(f"unknown job id {job_id}")
        existing = self._callbacks.get(job_id)
        if existing is None:
            self._callbacks[job_id] = fn
        else:

            def chained(job: Job, _first=existing, _then=fn) -> None:
                _first(job)
                _then(job)

            self._callbacks[job_id] = chained

    def kill_job(self, job: Job) -> None:
        for task in job.map_tasks + job.reduce_tasks:
            for attempt in list(task.running_attempts):
                attempt.kill()
        job.state = JobState.KILLED
        job.finish_time = self.sim.now
        self._locality.pop(job.job_id, None)
        if job in self.active_jobs:
            self.active_jobs.remove(job)
        self.finished_jobs.append(job)
        self.sim.obs.metrics.counter("jobs.killed").inc()
        self.sim.obs.tracer.end(job.obs_span, state="killed")

    def shutdown(self) -> None:
        """Stop periodic machinery (lets the event queue drain)."""
        if self._spec_cancel is not None:
            self._spec_cancel()
            self._spec_cancel = None

    def work_multiplier_for(self, task_name: str, attempt_index: int) -> float:
        """Work factor for an attempt (1.0-centred, heavy right tail).

        Keyed on the task identity and attempt ordinal so that the same
        logical work draws the same skew regardless of scheduling order
        -- ablation runs (DRM on/off, IPS on/off) stay byte-comparable.
        """
        import random as _random

        rng = _random.Random(f"{task_name}:{attempt_index}:skew")
        factor = 1.0 + JITTER * (2.0 * rng.random() - 1.0)
        if rng.random() < self.straggler_prob:
            factor *= 1.5 + rng.random()
        return max(0.3, factor)

    # ------------------------------------------------------------------
    # page-cache fit (decides disk vs memory speed for job I/O)
    # ------------------------------------------------------------------
    #: None = decide per job from the page-cache fit rule below;
    #: True/False = forced (the in-memory Spark-style engine sets True)
    force_cached: Optional[bool] = None

    def io_cached(self, job: Job) -> bool:
        """True when the job's working set fits the hosts' page caches.

        The footprint counts intermediate data plus the job output with
        replication, divided across the physical machines behind the
        trackers; input reads always hit the disk (cold data).
        """
        if self.force_cached is not None:
            return self.force_cached
        if job.job_id in self._io_cached:
            return self._io_cached[job.job_id]
        pms = {t.context.pm for t in self.trackers}
        budget = min(pm.cache_budget_mb for pm in pms)
        footprint_mb = (
            job.map_output_mb * (1.0 + MERGE_IO_FACTOR)
            + job.output_mb * self.fs.replication
        )
        cached = footprint_mb / max(1, len(pms)) <= budget
        self._io_cached[job.job_id] = cached
        return cached

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def request_dispatch(self) -> None:
        if self._dispatch_pending:
            return
        self._dispatch_pending = True
        self.sim.schedule(DISPATCH_DELAY_S, self._dispatch)

    def _dispatch(self) -> None:
        """One dispatch round: assign tasks until no kind makes progress.

        The round sums PM loads over the busy trackers only, then keeps
        them up to date as it launches: within a round a load only grows
        and runnable lists only shrink (each launch removes its task from
        its list, and within a round no other code schedules a listed
        task).  Tasks that reopen mid-round are picked up by the next
        round -- every such transition calls request_dispatch(), so the
        drift window is one dispatch delay.
        """
        self._dispatch_pending = False
        self._policy_skipped = False
        load_by_pm: Dict[int, int] = {}
        for t in self._busy:
            key = id(t.context.pm)
            load_by_pm[key] = load_by_pm.get(key, 0) + len(t.running)
        state = _Round(load_by_pm, self._releases)
        progress = True
        while progress:
            progress = False
            if self._assign_one(TaskKind.MAP, state):
                progress = True
            if self._assign_one(TaskKind.REDUCE, state):
                progress = True
        if self._policy_skipped:
            # a policy declined every offer it got this round (delay
            # scheduling waiting out a locality miss).  Re-offer after
            # another heartbeat so finite skip budgets always drain even
            # when no completion event would wake the dispatcher.
            self.request_dispatch()

    def _runnable_tasks(self, job: Job, kind: TaskKind) -> List[Task]:
        if kind is TaskKind.MAP:
            return [t for t in job.map_tasks if not t.scheduled]
        if job.map_progress() + 1e-12 < SLOWSTART and job.map_tasks:
            return []
        return [t for t in job.reduce_tasks if not t.scheduled]

    def _free_trackers(self, kind: TaskKind) -> List[TaskTracker]:
        if kind is TaskKind.MAP:
            return [t for t in self.trackers if t.free_map_slots() > 0]
        return [t for t in self.trackers if t.free_reduce_slots() > 0]

    def _pick_tracker(self, kind: TaskKind, state: _Round) -> Optional[TaskTracker]:
        """The free tracker with the least ``(PM load, running, name)``.

        A PM's load counts its trackers' running attempts, so a free
        tracker on a PM with no load has key ``(0, 0, name)``, and the
        first one in name order is the minimum.  The round's cursor
        walks the name-ordered fleet to it.  Within a round no skipped
        tracker can become such a tracker again -- PM loads only grow
        and slots only fill -- except through a release, which restarts
        the cursors.  Only when every free tracker sits on a loaded PM
        does the choice fall back to ``min()`` over the free trackers.
        """
        if state.releases != self._releases:
            state.releases = self._releases
            state.cursor[TaskKind.MAP] = state.cursor[TaskKind.REDUCE] = 0
        load_by_pm = state.load_by_pm
        free_slots = (
            TaskTracker.free_map_slots
            if kind is TaskKind.MAP
            else TaskTracker.free_reduce_slots
        )
        by_name = self._by_name
        end = len(by_name)
        i = state.cursor[kind]
        while i < end:
            t = by_name[i]
            if free_slots(t) > 0 and not load_by_pm.get(id(t.context.pm)):
                break
            i += 1
        state.cursor[kind] = i
        if i < end:
            return by_name[i]
        free = self._free_trackers(kind)
        if not free:
            return None
        return min(
            free,
            key=lambda t: (load_by_pm.get(id(t.context.pm), 0), len(t.running), t.name),
        )

    def _assign_one(self, kind: TaskKind, state: _Round) -> bool:
        """Assign one task, emulating Hadoop's heartbeat discipline.

        The *tracker* is chosen first -- the free one on the least
        loaded physical machine, like the next node to heartbeat in a
        lightly loaded cluster (see :meth:`_pick_tracker`) -- and then
        the scheduler picks the task *for it*, job by job in its order
        (by default node-local, then host-local, then any pending task;
        see :meth:`SlotScheduler.pick_task`).  Choosing the tracker
        first spreads work across machines instead of packing every
        task onto the few nodes that hold replicas.  ``state`` is the
        round ``_dispatch`` is running.
        """
        tracker = self._pick_tracker(kind, state)
        if tracker is None:
            return False
        scheduler = self.scheduler
        view = ClusterView(self, kind)
        runnable = state.runnable
        for job in scheduler.order(self.active_jobs, view):
            cache_key = (job.job_id, kind)
            tasks = runnable.get(cache_key)
            if tasks is None:
                tasks = self._runnable_tasks(job, kind)
                runnable[cache_key] = tasks
            if not tasks:
                continue
            task = scheduler.pick_task(job, tasks, tracker, kind, view)
            if task is SKIP_JOB:
                # the policy declines this offer (e.g. delay scheduling
                # waiting for locality): next job in order
                self._policy_skipped = True
                continue
            self._launch(task, tracker)
            tasks.remove(task)
            pm_key = id(tracker.context.pm)
            state.load_by_pm[pm_key] = state.load_by_pm.get(pm_key, 0) + 1
            return True
        return False

    def local_task(self, tracker: TaskTracker, tasks: List[Task]) -> Optional[Task]:
        """The first of the map ``tasks`` whose input has a replica on
        ``tracker``'s context (node-local), else the first with one on
        its physical machine (host-local), else ``None``.

        The one locality rule: the default pick
        (:meth:`SlotScheduler.pick_task`) and the zoo's locality
        policies (delay scheduling, job-driven maps) all ask it.
        ``tasks`` are a job's runnable maps in map-index order, as
        dispatch hands them out.  The answer comes from the job's
        :class:`_Locality`: the tasks listed under the tracker's context,
        then under the contexts of the DataNodes on its machine
        (``pm.datanodes``), so the walk is sized by the job's replicas
        there, not by ``tasks`` or the fleet.
        """
        if not tasks:
            return None
        index = self._locality[tasks[0].job.job_id]
        replica_holders = self.fs.namenode.replica_holders
        context = tracker.context
        task = index.first(
            context,
            tasks,
            lambda t: any(h.context is context for h in replica_holders(t.block)),
        )
        if task is not None:
            return task
        pm = context.pm

        def on_pm(t: Task) -> bool:
            return any(h.context.pm is pm for h in replica_holders(t.block))

        best = None
        for datanode in pm.datanodes:
            best = index.first(datanode.context, tasks, on_pm, best) or best
        return best

    def _replica_recorded(self, block, datanode) -> None:
        """A new replica: list its map tasks under the holder's context."""
        for index in self._locality.values():
            i = index.by_block.get(block.block_id)
            if i is not None:
                index.add(i, (datanode,))

    def _launch(
        self, task: Task, tracker: TaskTracker, speculative: bool = False
    ) -> TaskAttempt:
        attempt = TaskAttempt(self, task, tracker, speculative)
        tracker.assign(attempt)
        self._busy[tracker] = None
        job = task.job
        if job.start_time is None:
            job.start_time = self.sim.now
        metrics = self.sim.obs.metrics
        metrics.counter("attempts.launched").inc()
        if speculative:
            self.speculative_launched += 1
            metrics.counter("attempts.speculative").inc()
        # reduce attempts seed their shuffle state from the task-level
        # backlog inside start()
        attempt.start()
        return attempt

    # ------------------------------------------------------------------
    # attempt completion plumbing
    # ------------------------------------------------------------------
    def _released(self, tracker: TaskTracker) -> None:
        """Bookkeeping for an attempt that just left ``tracker``."""
        self._releases += 1
        if not tracker.running:
            self._busy.pop(tracker, None)

    def on_attempt_succeeded(self, attempt: TaskAttempt) -> None:
        self._released(attempt.tracker)
        task = attempt.task
        if task.completed:
            # lost the race against a sibling attempt that finished in
            # the same event; treat as killed
            self.request_dispatch()
            return
        task.completed = True
        task.completed_at = self.sim.now
        task.winning_attempt = attempt
        for sibling in list(task.running_attempts):
            if sibling is not attempt:
                sibling.kill(reason="lost_race")
        if task.kind is TaskKind.MAP:
            self._on_map_done(task, attempt)
        self._check_job_done(task.job)
        self.request_dispatch()

    def on_attempt_done(self, attempt: TaskAttempt) -> None:
        """Called when an attempt is killed; requeues incomplete tasks."""
        self._released(attempt.tracker)
        self.request_dispatch()

    def _on_map_done(self, task: Task, attempt: TaskAttempt) -> None:
        job = task.job
        n_reduces = max(1, len(job.reduce_tasks))
        per_reduce_mb = (
            task.block.size_mb * job.spec.profile.map_selectivity / n_reduces
        )
        host = attempt.tracker.context.host
        for reduce_task in job.reduce_tasks:
            reduce_task.maps_pending = max(0, reduce_task.maps_pending - 1)
            if per_reduce_mb > 0:
                reduce_task.shuffle_backlog[host] = (
                    reduce_task.shuffle_backlog.get(host, 0.0) + per_reduce_mb
                )
            for running in reduce_task.running_attempts:
                running.notify_map_output(host, per_reduce_mb)
        # slowstart crossing: reduces become runnable once the slowstart
        # fraction of maps completes.  Record when, and the causal edge
        # back to the map completion that tipped it over.
        if (
            job.reduce_tasks
            and job.reduce_tasks[0].runnable_since is None
            and job.map_progress() + 1e-12 >= SLOWSTART
        ):
            for reduce_task in job.reduce_tasks:
                reduce_task.runnable_since = self.sim.now
            obs = self.sim.obs
            if obs.tracer.enabled:
                obs.tracer.instant(
                    f"job.slowstart:{job.spec.name}#{job.job_id}",
                    category="job",
                    track="jobs",
                    job_id=job.job_id,
                    maps_done=sum(1 for t in job.map_tasks if t.completed),
                    cause=f"{task.name}#a{attempt.attempt_id}",
                )
        if job.maps_done and job.maps_done_time is None:
            job.maps_done_time = self.sim.now

    def _check_job_done(self, job: Job) -> None:
        if job.done:
            return
        all_tasks = job.map_tasks + job.reduce_tasks
        if all(t.completed for t in all_tasks):
            job.state = JobState.SUCCEEDED
            job.finish_time = self.sim.now
            if job.maps_done_time is None:
                job.maps_done_time = self.sim.now
            del self._locality[job.job_id]
            self.active_jobs.remove(job)
            self.finished_jobs.append(job)
            obs = self.sim.obs
            obs.metrics.counter("jobs.completed").inc()
            obs.metrics.histogram("job.jct_s").observe(job.jct)
            obs.tracer.end(job.obs_span, state="succeeded", jct_s=job.jct)
            callback = self._callbacks.pop(job.job_id, None)
            if callback is not None:
                callback(job)

    # ------------------------------------------------------------------
    # fault tolerance (TaskTracker loss)
    # ------------------------------------------------------------------
    def handle_node_failure(self, context) -> None:
        """A worker node died (crash, or a decommission the scheduler
        forced).  Hadoop semantics:

        - running attempts on the node are lost and their tasks requeued;
        - *completed map outputs* stored on the node are lost too, so if
          any reducer of the job still needs them, those maps re-execute;
        - the node's trackers stop accepting work.

        HDFS block recovery is separate (``HDFS.re_replicate``); the
        caller decides whether to trigger it.
        """
        dead_trackers = [t for t in self.trackers if t.context is context]
        if not dead_trackers:
            # storage-only node (split architecture): no tasks or map
            # outputs live here; HDFS recovery is the caller's job
            return
        obs = self.sim.obs
        obs.metrics.counter("fault.node_failures").inc()
        attempts_lost = 0
        for tracker in dead_trackers:
            tracker.alive = False
            for attempt in list(tracker.running):
                attempts_lost += 1
                task = attempt.task
                attempt.kill(reason="node_failure")
                if not task.completed:
                    # the task requeues; its next attempt is fault blame
                    task.runnable_since = self.sim.now
                    task.fault_reexec = True
        lost_host = context.host
        maps_lost = 0
        fetches_cancelled = 0
        for job in list(self.active_jobs):
            maps_lost += self._reexecute_lost_maps(job, context, lost_host)
            # abort in-flight shuffle fetches sourced from the dead host
            # (after the lost-map bookkeeping above, so re-opened maps
            # keep the reducers' shuffle phases from ending early)
            for reduce_task in job.reduce_tasks:
                for attempt in reduce_task.running_attempts:
                    fetches_cancelled += attempt.cancel_fetches_from(lost_host)
        obs.metrics.counter("fault.attempts_lost").inc(attempts_lost)
        obs.metrics.counter("fault.map_outputs_lost").inc(maps_lost)
        obs.metrics.counter("fault.shuffle_fetches_cancelled").inc(fetches_cancelled)
        if obs.tracer.enabled:
            obs.tracer.instant(
                f"node.failed:{lost_host}",
                category="fault",
                track="chaos",
                host=lost_host,
                attempts_lost=attempts_lost,
                map_outputs_lost=maps_lost,
                shuffle_fetches_cancelled=fetches_cancelled,
            )
        self.request_dispatch()

    def handle_node_repair(self, context) -> None:
        """A crashed worker node came back: its trackers accept work
        again (fresh, empty -- in-flight state died with the node).
        HDFS re-registration is the caller's job, as with failure."""
        revived = [
            t for t in self.trackers if t.context is context and not t.alive
        ]
        if not revived:
            return
        for tracker in revived:
            tracker.alive = True
        obs = self.sim.obs
        obs.metrics.counter("fault.node_repairs").inc()
        if obs.tracer.enabled:
            obs.tracer.instant(
                f"node.repaired:{context.host}",
                category="fault",
                track="chaos",
                host=context.host,
            )
        self.request_dispatch()

    def _reexecute_lost_maps(self, job: Job, context, lost_host: str) -> int:
        """Re-open completed maps whose output lived on the dead node.

        Returns the number of map tasks sent back for re-execution.
        """
        reducers_unfinished = any(not t.completed for t in job.reduce_tasks)
        if not reducers_unfinished:
            return 0
        n_reduces = max(1, len(job.reduce_tasks))
        reopened = 0
        obs = self.sim.obs
        for task in job.map_tasks:
            winner = task.winning_attempt
            if not task.completed or winner is None:
                continue
            if winner.tracker.context is not context:
                continue
            per_reduce_mb = (
                task.block.size_mb * job.spec.profile.map_selectivity / n_reduces
            )
            reopened += 1
            task.completed = False
            task.completed_at = None
            task.winning_attempt = None
            # causal edge: re-execution -> the node failure that lost
            # the map output
            task.runnable_since = self.sim.now
            task.fault_reexec = True
            if obs.tracer.enabled:
                obs.tracer.instant(
                    f"task.reexecute:{task.name}",
                    category="fault",
                    track="chaos",
                    task=task.name,
                    job_id=job.job_id,
                    cause="node_failure",
                    host=lost_host,
                )
            for reduce_task in job.reduce_tasks:
                if reduce_task.completed:
                    continue
                reduce_task.maps_pending += 1
                if per_reduce_mb > 0:
                    backlog = reduce_task.shuffle_backlog
                    backlog[lost_host] = max(
                        0.0, backlog.get(lost_host, 0.0) - per_reduce_mb
                    )
                for attempt in reduce_task.running_attempts:
                    attempt.notify_map_lost(lost_host, per_reduce_mb)
            if job.maps_done_time is not None:
                job.maps_done_time = None
        return reopened

    # ------------------------------------------------------------------
    # speculative execution
    # ------------------------------------------------------------------
    def _speculation_sweep(self) -> None:
        for job in list(self.active_jobs):
            for kind in (TaskKind.MAP, TaskKind.REDUCE):
                self._speculate_kind(job, kind)

    def _speculate_kind(self, job: Job, kind: TaskKind) -> None:
        tasks = job.map_tasks if kind is TaskKind.MAP else job.reduce_tasks
        if any(not t.scheduled and not t.completed for t in tasks):
            return  # still have pending work; no spare capacity for copies
        mean = peer_mean_duration(tasks)
        if mean is None:
            return
        threshold = self.speculation_factor * mean
        free = self._free_trackers(kind)
        if not free:
            return
        for task in tasks:
            if task.completed or len(task.running_attempts) != 1:
                continue
            attempt = task.running_attempts[0]
            # progress-based straggler test (as in Hadoop): compare the
            # attempt's projected total duration against the mean of
            # completed peers
            if attempt.projected_duration() < threshold:
                continue
            others = [t for t in free if t.host != attempt.tracker.host] or free
            tracker = min(others, key=lambda t: (len(t.running), t.name))
            self._launch(task, tracker, speculative=True)
            free = self._free_trackers(kind)
            if not free:
                return

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def running_attempts(self) -> List[TaskAttempt]:
        out: List[TaskAttempt] = []
        for tracker in self.trackers:
            out.extend(tracker.running)
        return out
