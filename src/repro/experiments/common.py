"""Shared experiment plumbing.

Experiments run at a configurable :class:`Scale`.  ``SMALL`` (the
default for tests and benchmarks) shrinks cluster and input sizes so a
full figure regenerates in seconds; ``PAPER`` matches the testbed's 24
PMs / 48 VMs and full input sizes.  All comparisons are within a single
scale, so the figure *shapes* are preserved at any scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.mapreduce.job import Job, JobSpec
from repro.sim.engine import Simulator
from repro.workloads.specs import ALL_BENCHMARKS, PAPER_INPUT_GB, make_job

BENCH_NAMES = [b.name for b in ALL_BENCHMARKS]


@dataclass(frozen=True)
class Scale:
    """Knobs that shrink an experiment without changing its shape."""

    name: str
    pms: int  # physical machines in the full cluster
    vms_per_pm: int
    input_fraction: float  # of the paper's per-benchmark input sizes

    @property
    def vms(self) -> int:
        return self.pms * self.vms_per_pm

    def input_gb(self, benchmark: str) -> float:
        return max(0.0625, PAPER_INPUT_GB[benchmark] * self.input_fraction)


TINY = Scale("tiny", pms=4, vms_per_pm=2, input_fraction=0.08)
SMALL = Scale("small", pms=8, vms_per_pm=2, input_fraction=0.15)
MEDIUM = Scale("medium", pms=12, vms_per_pm=2, input_fraction=0.4)
PAPER = Scale("paper", pms=24, vms_per_pm=2, input_fraction=1.0)
# datacenter scales: event-core targets well past the paper's testbed.
# Paper figures are not reported here -- cells that run at these sizes
# (the ``scale-smoke`` cell) bound their own work explicitly rather
# than deriving it from input_fraction, which multiplies hosts only.
LARGE = Scale("large", pms=5_000, vms_per_pm=2, input_fraction=0.08)
HUGE = Scale("huge", pms=50_000, vms_per_pm=2, input_fraction=0.08)

#: every named scale, as referenced by the CLI and sweep specs.  TINY
#: exists for smoke runs and tests; figures are reported at SMALL+;
#: LARGE (10k hosts) and HUGE (100k hosts) exercise the event core.
SCALES: Dict[str, Scale] = {
    s.name: s for s in (TINY, SMALL, MEDIUM, PAPER, LARGE, HUGE)
}


def resolve_scale(name) -> Scale:
    """Look up a scale by (case-insensitive) name; Scale passes through."""
    if isinstance(name, Scale):
        return name
    scale = SCALES.get(str(name).lower())
    if scale is None:
        raise KeyError(
            f"unknown scale {name!r}; choose from {sorted(SCALES)}"
        )
    return scale


def as_tuple(value) -> tuple:
    """Normalize a scalar-or-sequence cell parameter to a tuple.

    Sweep parameters arrive as scalars (``--param parts=fig1c``) or
    JSON lists; experiment signatures want sequences.  Strings count as
    scalars, not character sequences.
    """
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


def make_sim(seed: int, tracing: bool = False) -> Simulator:
    """Fresh simulator, optionally with span tracing enabled."""
    sim = Simulator(seed=seed)
    if tracing:
        sim.obs.enable_tracing()
    return sim


def write_run_artifacts(
    sim: Simulator,
    trace_path: Optional[str] = None,
    events_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
) -> List[str]:
    """Export the run's observability data; returns the paths written."""
    from repro.obs.export import (
        write_chrome_trace,
        write_jsonl,
        write_metrics_json,
    )

    written: List[str] = []
    if trace_path:
        write_chrome_trace(trace_path, sim.obs)
        written.append(trace_path)
    if events_path:
        write_jsonl(events_path, sim.obs)
        written.append(events_path)
    if metrics_path:
        write_metrics_json(metrics_path, sim.obs)
        written.append(metrics_path)
    return written


def build_virtual(
    sim: Simulator, pms: int, vms_per_pm: int
) -> tuple:
    """(cluster, contexts) for a virtual deployment."""
    from repro.cluster.cluster import Cluster

    cluster = Cluster.virtual(sim, pms, vms_per_pm)
    return cluster, list(cluster.vms)


def build_density_cluster(sim: Simulator, pms: int, density: int) -> tuple:
    """Virtual cluster where VM sizing follows consolidation density.

    Xen-faithful: vCPU counts are integers, so 1 VM/PM gets both cores,
    2 VMs/PM get 1 vCPU each (the paper's flavour), and 4 VMs/PM are
    2x CPU-oversubscribed with 512 MB guests -- which is where the
    density overheads of Figure 1(a) come from.
    """
    from repro.cluster.cluster import Cluster
    from repro.cluster.resources import Resources

    if density < 1:
        raise ValueError("density must be >= 1")
    cluster = Cluster(sim)
    pm_spec = cluster.pm_spec
    vcpus = max(1.0, pm_spec.cpu_cores / density)
    mem = (pm_spec.mem_mb / 2.0) / density
    spec = Resources(
        cpu_cores=vcpus,
        mem_mb=mem,
        disk_mbps=pm_spec.disk_mbps,
        net_mbps=pm_spec.net_mbps,
    )
    for _ in range(pms):
        pm = cluster.add_pm()
        for _ in range(density):
            cluster.add_vm(pm, spec=spec)
    return cluster, list(cluster.vms)


def build_native(sim: Simulator, pms: int) -> tuple:
    from repro.cluster.cluster import Cluster

    cluster = Cluster.native(sim, pms)
    return cluster, cluster.native_contexts()


def run_single_job(
    kind: str,
    benchmark: str,
    input_gb: float,
    pms: int,
    vms_per_pm: int = 2,
    num_reducers: Optional[int] = None,
    seed: int = 7,
    map_slots: Optional[int] = None,
    reduce_slots: Optional[int] = None,
    split_storage: bool = False,
    dom0: bool = False,
    density_scaled: bool = False,
) -> Job:
    """Run one benchmark on a fresh cluster; returns the finished job.

    ``kind``: "native" or "virtual".  ``dom0`` runs work in the
    privileged domain of otherwise-virtualized hosts (Figure 2(c)).
    ``split_storage`` deploys the split architecture: on each PM, the
    first VM computes and the second stores (Figure 2(d)).
    """
    from repro.cluster.cluster import Cluster
    from repro.mapreduce.cluster import MapReduceCluster

    sim = Simulator(seed=seed)
    storage = None
    if kind == "native":
        cluster, contexts = build_native(sim, pms)
        if dom0:
            # virtualize the hosts but run Hadoop in Dom-0
            contexts = [cluster.dom0(pm) for pm in cluster.pms]
    elif kind == "virtual":
        if split_storage:
            # split architecture (Figure 3): per PM, one compute VM sized
            # like the combined pair's compute capacity plus one storage
            # VM holding the DataNode.  Slot counts double on the compute
            # VM so total cluster slots match the combined deployment.
            from repro.cluster.resources import Resources

            cluster = Cluster(sim)
            contexts, storage = [], []
            for _ in range(pms):
                pm = cluster.add_pm()
                compute_vm = cluster.add_vm(
                    pm, spec=Resources(cpu_cores=2.0, mem_mb=2048.0,
                                       disk_mbps=75.0, net_mbps=119.0)
                )
                # the storage VM absorbs the I/O fan-in of the two
                # DataNodes it replaces, so it is sized with the host's
                # full network processing capacity (its CPU is idle)
                storage_vm = cluster.add_vm(
                    pm, spec=Resources(cpu_cores=2.0, mem_mb=1024.0,
                                       disk_mbps=75.0, net_mbps=119.0)
                )
                contexts.append(compute_vm)
                storage.append(storage_vm)
        elif density_scaled:
            cluster, contexts = build_density_cluster(sim, pms, vms_per_pm)
        else:
            cluster, contexts = build_virtual(sim, pms, vms_per_pm)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    mr = MapReduceCluster(
        sim,
        cluster.fabric,
        contexts,
        storage_contexts=storage,
        map_slots=map_slots,
        reduce_slots=reduce_slots,
    )
    reducers = num_reducers if num_reducers is not None else pms
    spec = make_job(benchmark, input_gb=input_gb, num_reducers=reducers)
    return mr.run_job(spec)


def pct_increase(value: float, baseline: float) -> float:
    """Percentage increase of ``value`` over ``baseline``."""
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return 100.0 * (value - baseline) / baseline


def pct_reduction(baseline: float, value: float) -> float:
    """Percentage reduction from ``baseline`` down to ``value``."""
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return 100.0 * (baseline - value) / baseline


def mean(values: Sequence[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)
