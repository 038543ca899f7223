"""Deterministic fault injection against a running MapReduce cluster.

The :class:`ChaosInjector` walks a :class:`~repro.chaos.faults.FaultSchedule`
and applies each fault through the simulation's public control surfaces:
``MapReduceCluster.fail_node``/``repair_node`` for crashes,
``ExecutionContext.set_degradation`` for CPU/disk faults (marked, when
tracing, by a ``cgroup.degrade:<context>`` instant), and
``NetworkFabric.set_nic_scale``/``partition`` for network faults.
Faults are not decisions: what happened to each is a
:class:`FaultRecord` in :attr:`ChaosInjector.records`, not an entry of
the decision log on ``sim.obs``.

Safety guards keep chaos runs *completable*: the blast radius for
concurrent crashes defaults to ``replication - 1`` nodes, a crash is
skipped while any block is under-replicated, and a correlated rack
crash is skipped if it would destroy the last replica of any block.
Skips are deterministic (they depend only on simulation state) and are
recorded, so a report always explains what did -- and did not -- happen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.chaos.faults import FaultSchedule, FaultSpec
from repro.mapreduce.cluster import MapReduceCluster
from repro.sim.engine import Simulator


@dataclass
class FaultRecord:
    """What actually happened to one scheduled fault."""

    spec: FaultSpec
    target: Optional[str] = None
    injected_at: Optional[float] = None
    healed_at: Optional[float] = None
    skip_reason: Optional[str] = None

    @property
    def injected(self) -> bool:
        return self.injected_at is not None

    @property
    def recovery_s(self) -> Optional[float]:
        if self.injected_at is None or self.healed_at is None:
            return None
        return self.healed_at - self.injected_at

    def to_dict(self) -> dict:
        return {
            "kind": self.spec.kind,
            "scheduled_at": self.spec.at,
            "target": self.target,
            "injected_at": self.injected_at,
            "healed_at": self.healed_at,
            "recovery_s": self.recovery_s,
            "skip_reason": self.skip_reason,
        }


class ChaosInjector:
    """Apply a fault schedule to a cluster, deterministically."""

    def __init__(
        self,
        sim: Simulator,
        mr: MapReduceCluster,
        schedule: FaultSchedule,
        max_concurrent_crashes: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.mr = mr
        self.schedule = schedule
        if max_concurrent_crashes is None:
            max_concurrent_crashes = max(1, mr.fs.replication - 1)
        self.max_concurrent_crashes = max_concurrent_crashes
        self.records: List[FaultRecord] = []
        # target picks draw from a labelled stream so chaos never
        # perturbs the simulation's own randomness
        self._rng = sim.fork_rng("chaos.targets")
        self._contexts = [t.context for t in mr.trackers]
        self._by_name = {c.name: c for c in self._contexts}
        self._crashed: Set[str] = set()
        # overlapping degradations stack multiplicatively per context
        self._degradations: Dict[str, List[Tuple[float, float]]] = {}
        self._nic_scales: Dict[str, List[float]] = {}
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule every fault in the timeline (call before ``run``)."""
        if self._started:
            raise RuntimeError("injector already started")
        self._started = True
        for spec in self.schedule:
            self.sim.schedule_at(spec.at, lambda spec=spec: self._inject(spec))

    @property
    def injected(self) -> List[FaultRecord]:
        return [r for r in self.records if r.injected]

    @property
    def skipped(self) -> List[FaultRecord]:
        return [r for r in self.records if not r.injected]

    # ------------------------------------------------------------------
    # injection
    # ------------------------------------------------------------------
    def _inject(self, spec: FaultSpec) -> None:
        record = FaultRecord(spec=spec)
        self.records.append(record)
        handler = getattr(self, f"_inject_{spec.kind}")
        handler(spec, record)
        obs = self.sim.obs
        if record.injected:
            obs.metrics.counter("chaos.faults.injected").inc()
            if obs.tracer.enabled:
                obs.tracer.instant(
                    f"chaos.{spec.kind}:{record.target}",
                    category="fault",
                    track="chaos",
                    kind=spec.kind,
                    target=record.target,
                    duration=spec.duration,
                )
        else:
            obs.metrics.counter("chaos.faults.skipped").inc()
            if obs.tracer.enabled:
                obs.tracer.instant(
                    f"chaos.skip.{spec.kind}",
                    category="fault",
                    track="chaos",
                    kind=spec.kind,
                    reason=record.skip_reason,
                )

    def _heal(self, record: FaultRecord, undo) -> None:
        undo()
        record.healed_at = self.sim.now
        obs = self.sim.obs
        obs.metrics.counter("chaos.faults.healed").inc()
        if obs.tracer.enabled:
            # closes the causal fault window opened by the injection
            # instant; critpath pairs the two by kind+target
            obs.tracer.instant(
                f"chaos.heal.{record.spec.kind}:{record.target}",
                category="fault",
                track="chaos",
                kind=record.spec.kind,
                target=record.target,
                injected_at=record.injected_at,
                recovery_s=record.recovery_s,
            )

    def _schedule_heal(self, record: FaultRecord, undo) -> None:
        if record.spec.duration > 0:
            self.sim.schedule(
                record.spec.duration, lambda: self._heal(record, undo)
            )

    def _pick(self, candidates: Sequence) -> object:
        """Deterministic choice from the injector's own RNG stream."""
        ordered = sorted(candidates, key=lambda c: c.name)
        return ordered[self._rng.randrange(len(ordered))]

    # ------------------------------------------------------------------
    # crashes
    # ------------------------------------------------------------------
    def _crash_guard(self, n_new: int = 1) -> Optional[str]:
        if len(self._crashed) + n_new > self.max_concurrent_crashes:
            return "blast_radius"
        # only blocks that *lost* replicas count: blocks with no recorded
        # replica yet are mid-write (the pipeline protects those), not
        # degraded, and would otherwise veto every mid-job crash
        replication = self.mr.fs.replication
        for holders in self.mr.fs.namenode.replicas.values():
            if holders and len(holders) < replication:
                return "under_replicated"
        return None

    def _would_lose_data(self, contexts) -> bool:
        """True if killing ``contexts`` destroys some block's last copy."""
        doomed = set()
        for ctx in contexts:
            datanode = self.mr.fs.datanode_on_context(ctx)
            if datanode is not None:
                doomed.add(datanode.name)
        if not doomed:
            return False
        for holders in self.mr.fs.namenode.replicas.values():
            if holders and set(holders) <= doomed:
                return True
        return False

    def _crash_contexts(self, contexts, record: FaultRecord) -> None:
        for ctx in contexts:
            self._crashed.add(ctx.name)
            self.mr.fail_node(ctx)
        record.injected_at = self.sim.now

        def undo() -> None:
            for ctx in contexts:
                self._crashed.discard(ctx.name)
                self.mr.repair_node(ctx)

        self._schedule_heal(record, undo)

    def _inject_node_crash(self, spec: FaultSpec, record: FaultRecord) -> None:
        reason = self._crash_guard(1)
        if reason is not None:
            record.skip_reason = reason
            return
        alive = [c for c in self._contexts if c.name not in self._crashed]
        ctx = self._resolve(spec, alive, record)
        if ctx is None:
            return
        if self._would_lose_data([ctx]):
            record.skip_reason = "data_loss"
            return
        record.target = ctx.name
        self._crash_contexts([ctx], record)

    def _inject_rack_crash(self, spec: FaultSpec, record: FaultRecord) -> None:
        """Correlated failure: every worker on one physical machine."""
        alive = [c for c in self._contexts if c.name not in self._crashed]
        if not alive:
            record.skip_reason = "no_target"
            return
        if spec.target is not None:
            group = [c for c in alive if c.pm.name == spec.target]
            if not group:
                record.skip_reason = "no_target"
                return
        else:
            pm = self._pick(sorted({c.pm for c in alive}, key=lambda p: p.name))
            group = [c for c in alive if c.pm is pm]
        reason = self._crash_guard(len(group))
        if reason is not None:
            record.skip_reason = reason
            return
        if self._would_lose_data(group):
            record.skip_reason = "data_loss"
            return
        record.target = group[0].pm.name
        self._crash_contexts(group, record)

    # ------------------------------------------------------------------
    # degradations (CPU steal, failing disk, stragglers)
    # ------------------------------------------------------------------
    def _resolve(self, spec: FaultSpec, candidates, record: FaultRecord):
        """Pick a context: the spec's explicit target, or a random one."""
        if spec.target is not None:
            ctx = self._by_name.get(spec.target)
            if ctx is None or ctx not in candidates:
                record.skip_reason = "no_target"
                return None
            return ctx
        if not candidates:
            record.skip_reason = "no_target"
            return None
        return self._pick(candidates)

    def _apply_degradations(self, ctx) -> None:
        cpu = disk = 1.0
        for c, d in self._degradations.get(ctx.name, []):
            cpu *= c
            disk *= d
        ctx.set_degradation(cpu=cpu, disk=disk)
        obs = self.sim.obs
        if obs.tracer.enabled:
            obs.tracer.instant(
                f"cgroup.degrade:{ctx.name}",
                category="virt",
                track="virt",
                target=ctx.name,
                cpu=cpu,
                disk=disk,
            )

    def _degrade(
        self, spec: FaultSpec, record: FaultRecord, cpu: float, disk: float
    ) -> None:
        ctx = self._resolve(spec, self._contexts, record)
        if ctx is None:
            return
        record.target = ctx.name
        entry = (cpu, disk)
        self._degradations.setdefault(ctx.name, []).append(entry)
        self._apply_degradations(ctx)
        record.injected_at = self.sim.now

        def undo() -> None:
            self._degradations[ctx.name].remove(entry)
            self._apply_degradations(ctx)

        self._schedule_heal(record, undo)

    def _inject_cpu_steal(self, spec: FaultSpec, record: FaultRecord) -> None:
        self._degrade(spec, record, cpu=1.0 - spec.severity, disk=1.0)

    def _inject_disk_degrade(self, spec: FaultSpec, record: FaultRecord) -> None:
        self._degrade(spec, record, cpu=1.0, disk=1.0 - spec.severity)

    def _inject_straggler(self, spec: FaultSpec, record: FaultRecord) -> None:
        factor = 1.0 - spec.severity
        self._degrade(spec, record, cpu=factor, disk=factor)

    # ------------------------------------------------------------------
    # network faults
    # ------------------------------------------------------------------
    def _inject_nic_degrade(self, spec: FaultSpec, record: FaultRecord) -> None:
        ctx = self._resolve(spec, self._contexts, record)
        if ctx is None:
            return
        host = ctx.host
        record.target = host
        scale = 1.0 - spec.severity
        self._nic_scales.setdefault(host, []).append(scale)
        self._apply_nic(host)
        record.injected_at = self.sim.now
        obs = self.sim.obs
        if obs.tracer.enabled:
            # the fabric's per-host flow indexes make the blast radius
            # cheap to report: every flow touching the degraded NIC
            fabric = self.mr.fabric
            obs.tracer.instant(
                f"nic.degraded:{host}",
                category="fault",
                track="chaos",
                host=host,
                scale=scale,
                flows_out=len(fabric.flows_from(host)),
                flows_in=len(fabric.flows_to(host)),
            )

        def undo() -> None:
            self._nic_scales[host].remove(scale)
            self._apply_nic(host)

        self._schedule_heal(record, undo)

    def _apply_nic(self, host: str) -> None:
        scale = 1.0
        for s in self._nic_scales.get(host, []):
            scale *= s
        self.mr.fabric.set_nic_scale(host, scale)

    def _inject_partition(self, spec: FaultSpec, record: FaultRecord) -> None:
        """Isolate one physical machine's endpoints from the rest.

        Cross-partition flows stall and resume on heal (TCP riding out a
        switch outage), so the fault needs a finite duration; permanent
        partitions would deadlock shuffles and are skipped.
        """
        fabric = self.mr.fabric
        if fabric.partitioned:
            record.skip_reason = "partition_active"
            return
        if spec.duration <= 0:
            record.skip_reason = "permanent_partition"
            return
        if spec.target is not None:
            pms = [c.pm for c in self._contexts if c.pm.name == spec.target]
            if not pms:
                record.skip_reason = "no_target"
                return
            pm = pms[0]
        else:
            pm = self._pick(sorted({c.pm for c in self._contexts},
                                   key=lambda p: p.name))
        hosts = {c.host for c in self._all_endpoint_contexts()}
        side_a = {c.host for c in self._all_endpoint_contexts() if c.pm is pm}
        side_b = hosts - side_a
        if not side_a or not side_b:
            record.skip_reason = "no_target"
            return
        record.target = pm.name
        fabric.partition(side_a, side_b)
        record.injected_at = self.sim.now
        self._schedule_heal(record, fabric.heal_partition)

    def _all_endpoint_contexts(self):
        """Compute contexts plus storage contexts (split architecture)."""
        seen = list(self._contexts)
        for datanode in self.mr.fs.namenode.datanodes.values():
            if datanode.context not in seen:
                seen.append(datanode.context)
        return seen
