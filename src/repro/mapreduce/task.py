"""Tasks and task attempts (the units the schedulers place and kill).

A :class:`Task` is a logical unit of a job (one map per input block, or
one reduce partition).  A :class:`TaskAttempt` is one execution of it on
a TaskTracker; speculative execution and the Phase II arbiter may run
several attempts of the same task -- the first to finish wins, the rest
are killed, exactly as in Hadoop.
"""

from __future__ import annotations

import enum
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.hdfs.block import Block

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.job import Job
    from repro.mapreduce.jobtracker import JobTracker
    from repro.mapreduce.tracker import TaskTracker

#: shuffle fetches a reduce attempt keeps in flight (Hadoop's
#: mapred.reduce.parallel.copies)
MAX_PARALLEL_FETCHES = 5
#: passes over the shuffled bytes the merge stage counts in
#: :meth:`TaskAttempt.progress` and :meth:`JobTracker.io_cached` counts
#: in a job's intermediate footprint
MERGE_IO_FACTOR = 2.0

#: one stage of an attempt: ``(name, progress weight, start)``; ``start``
#: launches the stage's work, whose completion calls
#: :meth:`TaskAttempt._next_stage`
Stage = Tuple[str, float, Callable[[], None]]


class TaskKind(enum.Enum):
    MAP = "map"
    REDUCE = "reduce"


class _Descending(str):
    """A host name that orders backwards, so a min-heap of
    ``(-mb, _Descending(host), host)`` pops the largest backlog first and,
    on equal MB, the larger host name: the order of
    ``max(backlog, key=lambda h: (backlog[h], h))``."""

    __slots__ = ()
    __lt__ = str.__gt__


def skew_io_penalty(work_factor: float) -> float:
    """Disk efficiency penalty of a slow or skewed attempt: its read,
    spill and merge stages lose 0.25 per unit of excess work factor."""
    return 0.25 * max(0.0, work_factor - 1.0)


def peer_mean_duration(tasks: List["Task"]) -> Optional[float]:
    """Mean duration of the completed tasks' winning attempts, the
    baseline both straggler tests (speculation, the DRM's boost) hold a
    running attempt's :meth:`TaskAttempt.projected_duration` against;
    ``None`` below three completed peers."""
    durations = [
        t.winning_attempt.duration
        for t in tasks
        if t.completed and t.winning_attempt is not None
    ]
    if len(durations) < 3:
        return None
    return sum(durations) / len(durations)


class Task:
    """A logical map or reduce task.

    ``__slots__`` + the maintained ``running_count`` keep the scheduler
    hot path (slot rounds walk every task of every active job) free of
    per-call list builds and dict-backed attribute lookups.
    """

    __slots__ = (
        "job",
        "kind",
        "index",
        "block",
        "attempts",
        "completed",
        "completed_at",
        "winning_attempt",
        "runnable_since",
        "fault_reexec",
        "shuffle_backlog",
        "maps_pending",
        "running_count",
    )

    def __init__(
        self,
        job: "Job",
        kind: TaskKind,
        index: int,
        block: Optional[Block] = None,
    ) -> None:
        self.job = job
        self.kind = kind
        self.index = index
        self.block = block  # input block for maps
        self.attempts: List["TaskAttempt"] = []
        self.completed = False
        self.completed_at: Optional[float] = None
        self.winning_attempt: Optional["TaskAttempt"] = None
        #: causal bookkeeping for blame attribution (repro.obs.critpath):
        #: when the task last became runnable (submit, slowstart crossing,
        #: or fault-forced requeue) and whether its next execution is a
        #: re-execution caused by a fault rather than first-time work
        self.runnable_since: Optional[float] = None
        self.fault_reexec = False
        # shuffle backlog for reduces scheduled after maps finish:
        # host -> MB already waiting to be fetched
        self.shuffle_backlog: Dict[str, float] = {}
        #: maps whose output this reduce has yet to see announced; a
        #: fetching attempt's shuffle cannot end before it reaches 0
        self.maps_pending: int = 0
        #: number of attempts with ``running=True``; maintained by
        #: TaskAttempt lifecycle transitions so ``scheduled`` and the
        #: schedulers' slot counts never scan the attempts list
        self.running_count: int = 0

    @property
    def name(self) -> str:
        return f"{self.job.spec.name}-{self.kind.value[0]}{self.index}"

    @property
    def running_attempts(self) -> List["TaskAttempt"]:
        return [a for a in self.attempts if a.running]

    @property
    def scheduled(self) -> bool:
        return self.completed or self.running_count > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task({self.name!r}, done={self.completed})"


class TaskAttempt:
    """One execution of a task on a specific TaskTracker.

    An attempt is a pipeline of stages (:data:`Stage` records, built by
    :meth:`_map_stages` or :meth:`_reduce_stages`).  Each stage's pool
    entry, flow or HDFS write calls :meth:`_next_stage` on completion,
    which credits the stage's weight to :meth:`progress` and starts the
    next stage, or finishes the attempt after the last.
    """

    __slots__ = (
        "attempt_id",
        "jt",
        "sim",
        "task",
        "tracker",
        "speculative",
        "started_at",
        "runnable_since",
        "fault_reexec",
        "finished_at",
        "killed",
        "running",
        "_mem_mb",
        "_handles",
        "_stages",
        "_stage_index",
        "_progress_done",
        "_total_work",
        "_pending_fetch",
        "_fetch_heap",
        "_active_fetches",
        "_fetch_busy_s",
        "_fetch_busy_since",
        "_fetch_phase_over",
        "_output_file",
        "work_factor",
        "_span",
        "_stage_span",
    )

    def __init__(
        self,
        jt: "JobTracker",
        task: Task,
        tracker: "TaskTracker",
        speculative: bool = False,
    ) -> None:
        # per-JobTracker sequence (not a class-global counter), so two
        # same-seed runs in one process yield identical attempt names
        # and hence byte-identical trace/blame reports
        self.attempt_id = jt.next_attempt_id()
        self.jt = jt
        self.sim = jt.sim
        self.task = task
        self.tracker = tracker
        self.speculative = speculative
        self.started_at = self.sim.now
        #: blame bookkeeping: snapshot the task's runnable state at launch
        #: (the task may be re-marked runnable later by another fault)
        self.runnable_since = (
            task.runnable_since
            if task.runnable_since is not None
            else self.sim.now
        )
        self.fault_reexec = task.fault_reexec
        self.finished_at: Optional[float] = None
        self.killed = False
        self.running = True
        self._mem_mb = 0.0
        self._handles: List[object] = []  # active PoolEntry / Flow
        self._stages: Sequence[Stage] = ()
        self._stage_index = 0
        self._progress_done = 0.0  # summed weights of completed stages
        self._total_work = 1.0  # summed weights of all stages
        # shuffle state (reduces only): host -> MB still to fetch, and a
        # lazy max-heap over it (a list from the shuffle's start until it
        # drains; a kill keeps both, as a pump it interrupts reads them)
        self._pending_fetch: Dict[str, float] = {}
        self._fetch_heap: Sequence[Tuple[float, str, str]] = ()
        self._active_fetches = 0
        # wall time with at least one in-flight shuffle fetch; the rest
        # of the shuffle stage is waiting on upstream maps (blame:
        # shuffle_wait vs network_contention)
        self._fetch_busy_s = 0.0
        self._fetch_busy_since: Optional[float] = None
        # True whenever the attempt is not actively fetching: before the
        # shuffle stage seeds shuffle state (the task-level backlog
        # carries early map completions) and after the shuffle drains
        self._fetch_phase_over = True
        self._output_file: Optional[str] = None
        #: per-attempt work multiplier (data skew / slow node / GC)
        self.work_factor = jt.work_multiplier_for(task.name, len(task.attempts))
        # tracer spans: the attempt interval plus one child per stage
        self._span = None
        self._stage_span = None
        task.attempts.append(self)
        task.running_count += 1
        task.job.running_attempt_count += 1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        tracer = self.sim.obs.tracer
        if tracer.enabled:
            ctx = self.tracker.context
            self._span = tracer.begin(
                f"{self.task.name}#a{self.attempt_id}",
                category="task",
                track=self.tracker.name,
                parent=self.task.job.obs_span,
                attempt_id=self.attempt_id,
                job_id=self.task.job.job_id,
                task=self.task.name,
                kind=self.task.kind.value,
                speculative=self.speculative,
                # causal edge: attempt -> the slot wait it just ended
                runnable_since=self.runnable_since,
                wait_s=self.sim.now - self.runnable_since,
                # causal edge: re-execution -> the fault that forced it
                fault_reexec=self.fault_reexec,
                virtual=ctx.is_virtual,
                host=ctx.host,
                ctx=ctx.name,
            )
        profile = self.task.job.spec.profile
        need = (
            profile.map_mem_mb
            if self.task.kind is TaskKind.MAP
            else profile.reduce_mem_mb
        )
        if self.jt.dynamic_memory:
            # DRM memory management: allocate what the task actually uses
            self._mem_mb = need
        else:
            # stock Hadoop: fixed per-slot child-JVM heap, sized by the
            # administrator to the node's memory (small guests get
            # smaller -Xmx, as any sane mapred-site.xml would)
            node_heap = min(
                self.jt.slot_heap_mb,
                0.4 * self.tracker.context.mem_capacity_mb,
            )
            self._mem_mb = max(need, node_heap)
        self.tracker.context.alloc_mem(self._mem_mb)
        if not self.running:
            # the refresh inside alloc_mem completed a sibling attempt,
            # which killed this one as the race's loser
            return
        self._stages = stages = (
            self._map_stages()
            if self.task.kind is TaskKind.MAP
            else self._reduce_stages()
        )
        self._total_work = sum(weight for _, weight, _ in stages) or 1.0
        self._open_stage_span()
        stages[0][2]()

    def kill(self, reason: str = "killed") -> None:
        """Abort the attempt and release its resources and slot.

        ``reason`` distinguishes why ("lost_race" to a sibling attempt,
        "node_failure", or a plain administrative kill) in the trace.
        """
        if not self.running:
            return
        self.killed = True
        self.running = False
        self.task.running_count -= 1
        self.task.job.running_attempt_count -= 1
        self._note_fetch_activity()
        self.sim.obs.metrics.counter("attempts.killed").inc()
        self._close_spans("killed", reason=reason)
        for handle in self._handles:
            self._cancel_handle(handle)
        self._handles.clear()
        self._stages = ()
        self.tracker.context.free_mem(self._mem_mb)
        self._mem_mb = 0.0
        if self._output_file is not None and self._output_file in self.jt.fs.namenode.files:
            self.jt.fs.namenode.delete_file(self._output_file)
        self.tracker.release(self)
        self.jt.on_attempt_done(self)

    def _cancel_handle(self, handle: object) -> None:
        from repro.sim.network import Flow
        from repro.sim.pool import PoolEntry

        if isinstance(handle, PoolEntry):
            handle.pool.remove(handle)
        elif isinstance(handle, Flow):
            self.jt.fabric.cancel_flow(handle)

    def _finish(self) -> None:
        self.running = False
        self.task.running_count -= 1
        self.task.job.running_attempt_count -= 1
        self.finished_at = self.sim.now
        metrics = self.sim.obs.metrics
        metrics.counter("attempts.completed").inc()
        metrics.histogram(f"attempt.{self.task.kind.value}.duration_s").observe(
            self.finished_at - self.started_at
        )
        if self._span is not None:
            # stage-decomposition inputs for repro.obs.critpath, recorded
            # on the attempt span so blame needs only the trace
            ctx = self.tracker.context
            self._close_spans(
                "succeeded",
                work_factor=self.work_factor,
                io_penalty=self._io_penalty(),
                cpu_eff=ctx.cpu_efficiency(),
                disk_eff=ctx.disk_efficiency(),
                net_eff=ctx.net_efficiency(),
                fetch_busy_s=self._fetch_busy_s,
            )
        self.tracker.context.free_mem(self._mem_mb)
        self._mem_mb = 0.0
        self._handles.clear()
        # the stage records close over this attempt, and the task keeps
        # its attempts for the rest of the run
        self._stages = ()
        self.tracker.release(self)
        self.jt.on_attempt_succeeded(self)

    @property
    def duration(self) -> float:
        end = self.finished_at if self.finished_at is not None else self.sim.now
        return end - self.started_at

    # ------------------------------------------------------------------
    # progress estimation (used by speculation and the DRM's straggler boost)
    # ------------------------------------------------------------------
    def progress(self) -> float:
        """Fraction of the attempt's stage-weighted work completed."""
        if not self.running:
            return 1.0 if not self.killed else 0.0
        return min(1.0, self._progress_done / self._total_work)

    def projected_duration(self) -> float:
        """Total duration if the attempt keeps its pace so far (Hadoop's
        progress-based straggler test; progress floored at 5%)."""
        return self.duration / max(self.progress(), 0.05)

    # ------------------------------------------------------------------
    # tracing (no-ops while the null tracer is installed)
    # ------------------------------------------------------------------
    def _open_stage_span(self) -> None:
        """Close the running stage span and open the current stage's."""
        if self._span is None:
            return
        tracer = self.sim.obs.tracer
        tracer.end(self._stage_span)
        self._stage_span = None
        if self._stage_index < len(self._stages):
            self._stage_span = tracer.begin(
                self._stages[self._stage_index][0],
                category="task.stage",
                track=self.tracker.name,
                parent=self._span,
            )

    def _close_spans(self, status: str, **extra) -> None:
        if self._span is None:
            return
        tracer = self.sim.obs.tracer
        tracer.end(self._stage_span)
        tracer.end(self._span, status=status, **extra)
        self._stage_span = None
        self._span = None

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _track(self, handle: object) -> object:
        self._handles = [
            h for h in self._handles if not getattr(h, "done", False)
        ]
        self._handles.append(handle)
        return handle

    def _io_penalty(self) -> float:
        if self.tracker.context.is_virtual:
            return self.jt.overheads.sustained_io_penalty(self.task.job.spec.input_gb)
        return 0.0

    # ------------------------------------------------------------------
    # the stage pipeline
    # ------------------------------------------------------------------
    def _next_stage(self) -> None:
        """Continuation of every stage: credit the finished stage's
        weight, then start the next stage or finish the attempt.

        A killed attempt ignores it: ``kill`` cancels the pool entries
        and flows it tracks, but its HDFS output write still completes.
        """
        if self.killed or not self.running:
            return
        index = self._stage_index
        self._progress_done += self._stages[index][1]
        self._stage_index = index = index + 1
        self._open_stage_span()
        if index < len(self._stages):
            self._stages[index][2]()
        else:
            self._finish()

    def _cpu_stage(self, work: float, label: str) -> None:
        self._track(
            self.tracker.context.run_cpu(
                work,
                on_complete=self._next_stage,
                cap=1.0,
                label=f"{self.task.name}:{label}",
            )
        )

    def _disk_stage(self, mb: float, label: str, penalty: float) -> None:
        if mb <= 1e-9:
            self._next_stage()
            return
        self._track(
            self.tracker.context.run_disk(
                mb,
                on_complete=self._next_stage,
                label=f"{self.task.name}:{label}",
                efficiency_penalty=penalty,
                cached=self.jt.io_cached(self.task.job),
            )
        )

    def _init_stage(self) -> None:
        # JVM spawn + task initialization (a fixed CPU cost in Hadoop)
        self._cpu_stage(self.jt.task_startup_cpu_s, "init")

    def _map_stages(self) -> List[Stage]:
        """Read the input block, compute, spill the map output."""
        task = self.task
        job = task.job
        profile = job.spec.profile
        block = task.block
        assert block is not None, "map task without an input block"
        cpu_work = (
            block.size_mb * profile.map_cpu_per_mb + profile.fixed_map_cpu
        ) * self.work_factor
        spill_mb = block.size_mb * profile.map_selectivity
        # slow-node/skew factor degrades this attempt's I/O too
        io_penalty = self._io_penalty() + skew_io_penalty(self.work_factor)

        def read() -> None:
            source = self.jt.fs.pick_replica(block, self.tracker.context)

            def after_disk() -> None:
                if self.killed:
                    return
                if source.context is self.tracker.context:
                    self._next_stage()
                    return
                flow = self.jt.fabric.start_flow(
                    source.host,
                    self.tracker.context.host,
                    block.size_mb,
                    on_complete=self._next_stage,
                    efficiency=min(
                        source.context.net_efficiency(),
                        self.tracker.context.net_efficiency(),
                    ),
                    label=f"{task.name}:input",
                )
                self._track(flow)

            entry = source.read_block(
                block,
                after_disk,
                efficiency_penalty=io_penalty,
                cached=job.spec.input_cached,
            )
            self._track(entry)

        return [
            ("init", self.jt.task_startup_cpu_s, self._init_stage),
            ("read", block.size_mb, read),
            ("cpu", cpu_work, lambda: self._cpu_stage(cpu_work, "cpu")),
            (
                "spill",
                spill_mb,
                lambda: self._disk_stage(spill_mb, "spill", io_penalty),
            ),
        ]

    def _reduce_stages(self) -> List[Stage]:
        """Shuffle this reducer's share of the map output, merge it,
        reduce it, write the output to HDFS."""
        task = self.task
        job = task.job
        n_reduces = max(1, len(job.reduce_tasks))
        shuffle_mb = job.map_output_mb / n_reduces
        cpu_work = shuffle_mb * job.spec.profile.reduce_cpu_per_mb * self.work_factor
        out_mb = job.output_mb / n_reduces
        io_penalty = self._io_penalty() + skew_io_penalty(self.work_factor)

        def cpu() -> None:
            if cpu_work <= 1e-9:
                self._next_stage()
                return
            self._cpu_stage(cpu_work, "cpu")

        def output() -> None:
            if out_mb <= 1e-9:
                self._next_stage()
                return
            self._output_file = f"{task.name}-a{self.attempt_id}.out"
            self.jt.fs.create_file(
                self._output_file,
                out_mb,
                self.tracker.context,
                self._next_stage,
                efficiency_penalty=self._io_penalty(),
                cached=self.jt.io_cached(job),
            )

        return [
            ("init", self.jt.task_startup_cpu_s, self._init_stage),
            ("shuffle", shuffle_mb, self._begin_shuffle),
            # the merge moves the shuffled bytes through the disk once,
            # but its progress weight counts MERGE_IO_FACTOR passes, so
            # progress() weights it as more work than it does
            (
                "merge",
                shuffle_mb * MERGE_IO_FACTOR,
                lambda: self._disk_stage(shuffle_mb, "merge", io_penalty),
            ),
            ("cpu", cpu_work, cpu),
            ("output", out_mb, output),
        ]

    # ------------------------------------------------------------------
    # the shuffle stage
    # ------------------------------------------------------------------
    def _begin_shuffle(self) -> None:
        # seed shuffle state from maps that already finished
        self._pending_fetch = pending = dict(self.task.shuffle_backlog)
        self._fetch_heap = heap = [
            (-mb, _Descending(host), host) for host, mb in pending.items()
        ]
        heapify(heap)
        self._fetch_phase_over = False
        self._pump_fetches()

    def _set_pending(self, host: str, mb: float) -> None:
        """Set ``host``'s backlog and push its entry; the entries it
        replaces go stale and :meth:`_pump_fetches` skips them."""
        self._pending_fetch[host] = mb
        heappush(self._fetch_heap, (-mb, _Descending(host), host))

    def notify_map_output(self, host: str, mb: float) -> None:
        """Called by the JobTracker when a map of this job completes."""
        if not self.running or self.task.kind is not TaskKind.REDUCE:
            return
        if self._fetch_phase_over:
            # not fetching yet (startup stage): the task-level backlog,
            # which the JobTracker updates before notifying, carries it
            return
        if mb > 0:
            self._set_pending(host, self._pending_fetch.get(host, 0.0) + mb)
        self._pump_fetches()

    def notify_map_lost(self, host: str, mb: float) -> None:
        """A completed map's output vanished with its node; the map will
        re-run and re-announce (its task counts it pending again), so
        any bytes still queued for fetch from the dead host are dropped."""
        if not self.running or self.task.kind is not TaskKind.REDUCE:
            return
        if self._fetch_phase_over:
            # the shuffle already drained: this reducer has its copy
            return
        if host in self._pending_fetch and mb > 0:
            remaining = self._pending_fetch[host] - mb
            if remaining > 1e-9:
                self._set_pending(host, remaining)
            else:
                del self._pending_fetch[host]

    def _pump_fetches(self) -> None:
        if self.killed or not self.running or self._fetch_phase_over:
            return
        fabric = self.jt.fabric
        # one fabric fill for the whole pump burst, not one per fetch
        fabric.begin_batch()
        try:
            while (
                self._active_fetches < MAX_PARALLEL_FETCHES
                and self._pending_fetch
            ):
                host, mb = self._next_fetch()
                self._active_fetches += 1
                # same-PM fetches become loopback flows inside the fabric
                flow = fabric.start_flow(
                    host,
                    self.tracker.context.host,
                    mb,
                    on_complete=lambda: self._fetch_done(),
                    efficiency=self.tracker.context.net_efficiency(),
                    label=f"{self.task.name}:shuffle",
                )
                self._track(flow)
        finally:
            fabric.end_batch()
        self._maybe_end_shuffle()

    def _next_fetch(self) -> Tuple[str, float]:
        """Pop the host with the largest backlog, the larger name on
        equal MB, with its MB; skips the heap's stale entries (an MB
        that is no longer the host's backlog)."""
        pending = self._pending_fetch
        heap = self._fetch_heap
        while True:
            neg_mb, _, host = heappop(heap)
            if pending.get(host) == -neg_mb:
                del pending[host]
                return host, -neg_mb

    def _fetch_done(self) -> None:
        if self.killed or not self.running:
            return
        self._active_fetches -= 1
        self._pump_fetches()

    def _note_fetch_activity(self) -> None:
        """Accumulate wall time with >=1 in-flight shuffle fetch.

        Pure accounting on state transitions -- draws no randomness and
        schedules nothing, so it cannot perturb the simulation.
        """
        if self._active_fetches > 0:
            if self._fetch_busy_since is None:
                self._fetch_busy_since = self.sim.now
        elif self._fetch_busy_since is not None:
            self._fetch_busy_s += self.sim.now - self._fetch_busy_since
            self._fetch_busy_since = None

    def cancel_fetches_from(self, host: str) -> int:
        """Abort in-flight shuffle fetches sourced from a dead ``host``.

        The map outputs behind those flows are gone; without this the
        flows keep consuming simulated NIC bandwidth until they drain
        and then deliver bytes that no longer exist.  The JobTracker's
        lost-map bookkeeping (``notify_map_lost``) re-opens the maps, so
        the re-announced output is fetched again later.  Returns the
        number of flows cancelled.
        """
        if (
            not self.running
            or self.task.kind is not TaskKind.REDUCE
            or self._fetch_phase_over
        ):
            return 0
        from repro.sim.network import Flow

        doomed = [
            h
            for h in self._handles
            if isinstance(h, Flow) and not h.done and h.src == host
        ]
        if not doomed:
            return 0
        for flow in doomed:
            self.jt.fabric.cancel_flow(flow)
            self._active_fetches -= 1
        doomed_set = set(doomed)
        self._handles = [h for h in self._handles if h not in doomed_set]
        self._note_fetch_activity()
        self._pump_fetches()
        return len(doomed)

    def _maybe_end_shuffle(self) -> None:
        self._note_fetch_activity()
        if (
            self.task.maps_pending == 0
            and not self._pending_fetch
            and self._active_fetches == 0
            and not self._fetch_phase_over
        ):
            self._fetch_phase_over = True
            self._fetch_heap = ()
            self._next_stage()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskAttempt({self.task.name!r}#{self.attempt_id}, "
            f"on={self.tracker.name!r}, running={self.running})"
        )
