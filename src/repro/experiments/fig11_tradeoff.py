"""Figure 11: hybrid configuration design trade-off analysis.

The paper splits the 24-PM/48-VM testbed into 20 configurations
(C1..C20), each a random mix of PMs and VMs running the workload mix,
and plots Performance/Energy over the (PMs, VMs) plane.  C7
(12 PMs + 12 VMs) gave the best Performance/Energy; C17 (24 PMs, no
VMs) the worst.

We sweep configurations ``(n_pms_native, n_vms)`` over a fixed server
budget, run the same closed-loop workload on each, and report the
Performance/Energy surface.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.experiments.common import SMALL, Scale, mean
from repro.interactive.loadgen import ConstantLoad
from repro.interactive.service import RUBIS, InteractiveService
from repro.mapreduce.cluster import MapReduceCluster
from repro.metrics.energy import perf_per_energy
from repro.sim.engine import Simulator
from repro.workloads.specs import make_job


@dataclass
class ConfigResult:
    """Outcome for one hybrid configuration C_i."""

    label: str
    n_native_pms: int
    n_vms: int
    servers: int
    mean_jct_s: float
    energy_joules: float
    utilization: float

    @property
    def perf_per_energy(self) -> float:
        return perf_per_energy(self.mean_jct_s, self.energy_joules)


def _run_config(
    n_native: int,
    n_virt_pms: int,
    vms_per_pm: int,
    label: str,
    horizon_s: float,
    scale: Scale,
    seed: int,
) -> ConfigResult:
    sim = Simulator(seed=seed)
    service = None
    if n_virt_pms == 0:
        # all-native (the paper's C17 analogue): interactive services
        # require dedicated machines when nothing is virtualized, so
        # half the fleet sits over-provisioned
        cluster = Cluster.native(sim, n_native)
        for pm in cluster.pms[: n_native // 2]:
            pm.native.run_cpu(float("inf"), cap=0.35, label="svc")
        contexts = [pm.native for pm in cluster.pms[n_native // 2:]]
    else:
        cluster = Cluster.hybrid(sim, n_native, n_virt_pms, vms_per_pm)
        # one interactive VM per virtualized host; the rest take batch work
        service_vms = [vm for i, vm in enumerate(cluster.vms) if i % vms_per_pm == 0]
        batch_vms = [vm for vm in cluster.vms if vm not in service_vms]
        service = InteractiveService(
            sim, "rubis", RUBIS, service_vms,
            ConstantLoad(120 * len(service_vms)),
        )
        service.start()
        contexts = cluster.native_contexts() + batch_vms
    if not contexts:
        raise ValueError(f"{label}: no batch capacity")
    meter = cluster.start_metering()
    mr = MapReduceCluster(sim, cluster.fabric, contexts)
    completed: List[float] = []
    counter = itertools.count(1)

    def resubmit(bench: str) -> None:
        if sim.now >= horizon_s:
            return
        spec = make_job(
            bench,
            input_gb=scale.input_gb(bench),
            num_reducers=max(1, len(contexts) // 2),
            name=f"{bench.lower()}-{next(counter)}",
        )

        def done(job) -> None:
            completed.append(job.jct)
            resubmit(bench)

        mr.jt.submit(spec, on_complete=done)

    for bench in ("Sort", "Wcount", "PiEst", "Kmeans"):
        resubmit(bench)
    sim.run(until=horizon_s)
    meter.stop()
    mr.jt.shutdown()
    if service is not None:
        service.stop()
    if not completed:
        raise RuntimeError(f"{label}: no jobs completed within horizon")
    return ConfigResult(
        label=label,
        n_native_pms=n_native,
        n_vms=len(cluster.vms),
        servers=cluster.powered_servers(),
        mean_jct_s=mean(completed),
        energy_joules=meter.energy_joules,
        utilization=cluster.mean_cpu_utilization(),
    )


def fig11(
    scale: Scale = SMALL,
    total_pms: Optional[int] = None,
    horizon_s: float = 900.0,
    seed: int = 7,
    configs: Optional[Sequence[Tuple[int, int, int]]] = None,
) -> List[ConfigResult]:
    """Sweep hybrid configurations; returns one result per config.

    ``configs`` entries are ``(n_native_pms, n_virt_pms, vms_per_pm)``;
    the default sweep spans all-native through all-virtual over the
    scale's server budget, like the paper's C1..C20.
    """
    total = total_pms or scale.pms
    if configs is None:
        configs = []
        for native in range(0, total + 1, max(1, total // 5)):
            virt = total - native
            if virt == 0:
                configs.append((native, 0, 0))
            else:
                configs.append((native, virt, 2))
                if virt >= 2:
                    configs.append((native, virt, 3))
    results = []
    for i, (native, virt, density) in enumerate(configs, start=1):
        if virt == 0 and native == 0:
            continue
        results.append(
            _run_config(native, virt, density, f"C{i}", horizon_s, scale, seed)
        )
    return results


def best_and_worst(results: List[ConfigResult]) -> Tuple[ConfigResult, ConfigResult]:
    """(best, worst) by Performance/Energy, as the paper highlights."""
    ordered = sorted(results, key=lambda r: r.perf_per_energy)
    return ordered[-1], ordered[0]


def run(
    scale: Scale = SMALL, seed: int = 7, horizon_s: float = 900.0
) -> Dict[str, object]:
    """Sweep cell: the configuration trade-off surface as plain dicts."""
    results = fig11(scale, horizon_s=horizon_s, seed=seed)
    best, worst = best_and_worst(results)
    return {
        "configs": [
            {
                "label": r.label,
                "n_native_pms": r.n_native_pms,
                "n_vms": r.n_vms,
                "servers": r.servers,
                "mean_jct_s": r.mean_jct_s,
                "energy_joules": r.energy_joules,
                "utilization": r.utilization,
                "perf_per_energy": r.perf_per_energy,
            }
            for r in results
        ],
        "best": best.label,
        "worst": worst.label,
    }
