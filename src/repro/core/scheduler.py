"""The HybridMR facade: Phase I placement + Phase II management.

``HybridMRScheduler`` owns the two Hadoop deployments of a hybrid data
center (one on the physical cluster, one on the virtual cluster that
also hosts the interactive services), a Phase I scheduler fed by a
profile database, and the Phase II machinery (DRM + SLA monitor + IPS)
supervising the virtual side.

Ablation switches in :class:`HybridMRConfig` drive the paper's
experiments: Phase I on/off (Figure 8(a) compares against random/FCFS
placement) and the IPS (Figures 8(d), 9(a)).  The DRM always manages
all three dimensions here; the CPU/Memory/IO ablation of Figures 8(b),
8(c) sets them on a :class:`~repro.core.drm.DynamicResourceManager`
built directly (:mod:`repro.experiments.fig08_hybridmr_benefits`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.machine import ExecutionContext, PhysicalMachine
from repro.core.drm import DynamicResourceManager
from repro.core.ips import InterferencePreventionSystem
from repro.core.placement import PhaseOneScheduler, Placement
from repro.core.profiling import ProfileDatabase
from repro.interactive.service import InteractiveService
from repro.interactive.sla import SLAMonitor
from repro.mapreduce.cluster import MapReduceCluster
from repro.mapreduce.job import Job, JobSpec
from repro.sim.engine import Simulator
from repro.sim.network import NetworkFabric
from repro.virt.vm import VirtualMachine

#: the DRM's control period over the virtual cluster
DRM_EPOCH_S = 10.0


@dataclass
class HybridMRConfig:
    """Feature switches and tunables."""

    phase1_enabled: bool = True
    ips_enabled: bool = True
    #: feed every completed production job back into the profile DB
    #: (the online-profiling extension the paper points at [12], [33])
    online_profiling: bool = True
    #: used by the random-placement baseline when phase1 is disabled
    random_placement_seed: int = 99


class HybridMRScheduler:
    """2-phase hierarchical scheduler over a hybrid cluster."""

    def __init__(
        self,
        sim: Simulator,
        fabric: NetworkFabric,
        native_contexts: Sequence[ExecutionContext],
        batch_vms: Sequence[VirtualMachine],
        pms: Sequence[PhysicalMachine],
        services: Sequence[InteractiveService] = (),
        profile_db: Optional[ProfileDatabase] = None,
        config: Optional[HybridMRConfig] = None,
        mr_kwargs: Optional[dict] = None,
    ) -> None:
        if not native_contexts and not batch_vms:
            raise ValueError("need at least one execution context")
        self.sim = sim
        self.fabric = fabric
        self.config = config or HybridMRConfig()
        self.services = list(services)
        self.pms = list(pms)
        mr_kwargs = mr_kwargs or {}
        self.native_mr: Optional[MapReduceCluster] = (
            MapReduceCluster(sim, fabric, list(native_contexts), **mr_kwargs)
            if native_contexts
            else None
        )
        self.virtual_mr: Optional[MapReduceCluster] = (
            MapReduceCluster(sim, fabric, list(batch_vms), **mr_kwargs)
            if batch_vms
            else None
        )
        self.phase1 = PhaseOneScheduler(
            profile_db or ProfileDatabase(),
            physical_cluster_size=len(native_contexts),
            virtual_cluster_size=len(batch_vms),
        )
        self._rng = random.Random(self.config.random_placement_seed)
        self.drm: Optional[DynamicResourceManager] = None
        self.monitor: Optional[SLAMonitor] = None
        self.ips: Optional[InterferencePreventionSystem] = None
        if self.virtual_mr is not None:
            self.drm = DynamicResourceManager(
                sim, self.virtual_mr.jt, list(batch_vms), epoch_s=DRM_EPOCH_S
            )
            if self.services:
                self.monitor = SLAMonitor(sim, self.services)
                if self.config.ips_enabled:
                    self.ips = InterferencePreventionSystem(
                        sim,
                        self.monitor,
                        self.drm,
                        self.pms,
                        datanode_payload=self._datanode_payload,
                    )
        self._started = False

    def _datanode_payload(self, vm: VirtualMachine) -> float:
        """Resident HDFS bytes a migrating VM must drag along."""
        assert self.virtual_mr is not None
        datanode = self.virtual_mr.fs.datanode_on_context(vm)
        return datanode.used_mb if datanode is not None else 0.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise RuntimeError("scheduler already started")
        self._started = True
        for service in self.services:
            service.start()
        if self.drm is not None:
            self.drm.start()
        if self.monitor is not None:
            self.monitor.start()

    def stop(self) -> None:
        for service in self.services:
            service.stop()
        if self.drm is not None:
            self.drm.stop()
        if self.monitor is not None:
            self.monitor.stop()
        if self.ips is not None:
            self.ips.stop()
        if self.native_mr is not None:
            self.native_mr.jt.shutdown()
        if self.virtual_mr is not None:
            self.virtual_mr.jt.shutdown()
        self._started = False

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: JobSpec,
        on_complete: Optional[Callable[[Job], None]] = None,
    ) -> Tuple[Placement, Job]:
        """Place (Phase I), submit a batch job and log the decision."""
        placement, inputs = self._decide_placement(spec)
        mr = self.native_mr if placement is Placement.PHYSICAL else self.virtual_mr
        assert mr is not None

        def finished(job: Job) -> None:
            if self.config.online_profiling:
                self._record_online_profile(job, placement, mr)
            if on_complete is not None:
                on_complete(job)

        job = mr.submit(spec, finished)
        self.sim.obs.decide(
            "phase1", placement.value, spec.name, job_id=job.job_id, **inputs
        )
        return placement, job

    def _record_online_profile(
        self, job: Job, placement: Placement, mr: MapReduceCluster
    ) -> None:
        """Feed a finished production run back into the profile DB.

        Production JCTs include queueing and interference, so over time
        the estimates converge to what jobs *actually* experience on
        each side of the hybrid cluster -- tightening Algorithm 2's
        decisions without dedicated training runs.
        """
        from repro.core.profiling import ProfileRecord

        try:
            self.phase1.db.add(
                ProfileRecord(
                    benchmark=job.spec.profile.name,
                    virtual=placement is Placement.VIRTUAL,
                    cluster_size=len(mr.trackers),
                    data_gb=job.spec.input_gb,
                    jct_s=job.jct,
                    map_time_s=job.map_phase_time,
                    reduce_time_s=job.reduce_phase_time,
                )
            )
        except RuntimeError:
            pass  # killed jobs carry no usable timings

    def _decide_placement(self, spec: JobSpec) -> Tuple[Placement, Dict[str, object]]:
        if self.native_mr is None:
            return Placement.VIRTUAL, {"reason": "virtual-only"}
        if self.virtual_mr is None:
            return Placement.PHYSICAL, {"reason": "physical-only"}
        if not self.config.phase1_enabled:
            # baseline: random (first-come-first-served) placement
            placement = (
                Placement.PHYSICAL if self._rng.random() < 0.5 else Placement.VIRTUAL
            )
            return placement, {"reason": "random"}
        return self.phase1.place_batch(spec)

    # ------------------------------------------------------------------
    # convenience runner for experiments
    # ------------------------------------------------------------------
    def run_batch(
        self, specs: Sequence[JobSpec], timeout_s: float = 1e7
    ) -> List[Job]:
        """Submit all specs, run until every batch job completes."""
        remaining = {"n": len(specs)}

        def one_done(_job: Job) -> None:
            remaining["n"] -= 1
            if remaining["n"] == 0:
                self.sim.stop()

        jobs = [self.submit(spec, on_complete=one_done)[1] for spec in specs]
        if not jobs:
            return []
        self.sim.run(until=self.sim.now + timeout_s)
        unfinished = [j for j in jobs if not j.done]
        if unfinished:
            names = ", ".join(j.spec.name for j in unfinished)
            raise RuntimeError(f"batch jobs unfinished after {timeout_s}s: {names}")
        return jobs
