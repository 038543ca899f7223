"""Figure 6: profiling accuracy and interference curves.

- **6(a)**: actual vs estimated JCT across held-out configurations
  (paper: mean error 10.8%, std 9.7%);
- **6(b)**: normalized JCT of PiEst and Sort vs collocated CPU load --
  linear for the CPU-bound job, flat for the I/O-bound one;
- **6(c)**: normalized JCT vs collocated I/O rate -- exponential for
  the I/O-bound job.

:func:`fit_curves` fits the paper's two interference models to the
measured curves: a :class:`~repro.interference.models.LinearModel` per
benchmark on 6(b), an :class:`~repro.interference.models.ExponentialModel`
per benchmark on 6(c), each with its R².
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.resources import Resources
from repro.core.profiling import JobProfiler
from repro.interference.models import ExponentialModel, LinearModel
from repro.mapreduce.cluster import MapReduceCluster
from repro.sim.engine import Simulator
from repro.workloads.specs import make_job

#: quad-core host used for the interference study (matches the paper's
#: "4 VMs are deployed on a quad-core physical server")
QUAD_CORE = Resources(cpu_cores=4.0, mem_mb=8192.0, disk_mbps=75.0, net_mbps=119.0)


def fig6a(
    benchmark: str = "Sort",
    train_data_gb: Sequence[float] = (3.0, 4.0, 6.0, 8.0),
    train_clusters: Sequence[int] = (4, 8, 12),
    test_configs: Sequence[Tuple[int, float]] = (
        (4, 3.5), (4, 5.0), (4, 7.0), (8, 3.5), (8, 5.0), (8, 7.0),
        (6, 3.0), (6, 4.0), (6, 6.0), (10, 3.5), (10, 5.0), (10, 7.0),
        (12, 3.5), (12, 5.0), (12, 7.0), (8, 7.5),
    ),
    repeats: int = 1,
) -> Dict[str, object]:
    """Train the Phase I profiler, then score held-out configurations.

    Returns actual/estimated series plus mean and std of the relative
    error, comparable to the paper's 10.8% +- 9.7%.  Configurations stay
    in the disk-bound regime (the paper profiles Sort at 10 GB); across
    the page-cache cliff, interpolation-based profiling degrades -- a
    limitation Algorithm 1 shares with the original.
    """
    profiler = JobProfiler(repeats=repeats)
    profiler.train_grid(benchmark, list(train_data_gb), list(train_clusters), virtual=True)
    actual: List[float] = []
    estimated: List[float] = []
    errors: List[float] = []
    for cluster_size, gb in test_configs:
        record = profiler.profile(benchmark, gb, cluster_size, virtual=True)
        est = None
        # estimate *before* the test profile pollutes the DB: rebuild a
        # fresh estimate from the training records only
        est = _estimate_without(profiler, benchmark, cluster_size, gb, record)
        actual.append(record.jct_s)
        estimated.append(est)
        errors.append(abs(est - record.jct_s) / record.jct_s)
    mean_err = sum(errors) / len(errors)
    var = sum((e - mean_err) ** 2 for e in errors) / len(errors)
    return {
        "actual": actual,
        "estimated": estimated,
        "mean_error": mean_err,
        "std_error": math.sqrt(var),
    }


def _estimate_without(profiler, benchmark, cluster_size, gb, record) -> float:
    """Estimate from the DB minus the freshly profiled test record."""
    db = profiler.db
    key = db._key(benchmark, True, cluster_size, gb)
    saved = db._records.pop(key, None)
    try:
        est = db.estimate(benchmark, True, cluster_size, gb).jct_s
    finally:
        if saved is not None:
            db._records[key] = saved
    return est


def _interference_run(
    benchmark: str,
    gb: float,
    background_cpu_cores: float = 0.0,
    background_io_mbps: float = 0.0,
    seed: int = 7,
) -> float:
    """JCT of one job on a quad-core host's VM, with synthetic load.

    Three neighbour VMs impose open-ended CPU and/or disk demand, as in
    the paper's collocation study.
    """
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, pm_spec=QUAD_CORE)
    pm = cluster.add_pm()
    vm_spec = Resources(cpu_cores=1.0, mem_mb=1024.0, disk_mbps=75.0, net_mbps=119.0)
    bg_spec = Resources(cpu_cores=4.0, mem_mb=1024.0, disk_mbps=75.0, net_mbps=119.0)
    subject = cluster.add_vm(pm, spec=vm_spec)
    neighbours = []
    for i in range(3):
        # the paper pins VMs to cores and runs 8 concurrent threads: the
        # subject has no scheduler protection, so background pressure is
        # weighted by its thread count rather than fair-shared per VM
        threads = max(background_cpu_cores, 0.0) / 3.0
        vm = cluster.add_vm(
            pm, spec=bg_spec, name=f"bg{i}",
        )
        vm.vm_weight = max(threads, 1e-6) if background_cpu_cores > 0 else 1.0
        neighbours.append(vm)
        if background_cpu_cores > 0:
            vm.run_cpu(
                math.inf,
                cap=background_cpu_cores / 3.0,
                label=f"bg-cpu-{i}",
            )
        if background_io_mbps > 0:
            vm.io_weight = 2.0  # streaming writers dominate a shared disk
            vm.run_disk(
                math.inf,
                cap=background_io_mbps / 3.0,
                label=f"bg-io-{i}",
            )
    mr = MapReduceCluster(
        sim, cluster.fabric, [subject], map_slots=2, reduce_slots=2, replication=1
    )
    job = mr.run_job(make_job(benchmark, input_gb=gb, num_reducers=1))
    return job.jct


def fig6b(
    cpu_loads_pct: Sequence[float] = (0, 100, 300, 500, 700, 900),
    seed: int = 7,
) -> Dict[str, Dict[float, float]]:
    """Normalized JCT vs collocated CPU utilization (% of one core)."""
    out: Dict[str, Dict[float, float]] = {}
    for bench, gb in (("PiEst", 0.0625), ("Sort", 0.5)):
        base = _interference_run(bench, gb, seed=seed)
        out[bench] = {
            pct: _interference_run(bench, gb, background_cpu_cores=pct / 100.0, seed=seed)
            / base
            for pct in cpu_loads_pct
        }
    return out


def fig6c(
    io_loads_mbps: Sequence[float] = (0, 10, 20, 30, 40, 50, 60),
    seed: int = 7,
) -> Dict[str, Dict[float, float]]:
    """Normalized JCT vs collocated I/O rate (MB/s)."""
    out: Dict[str, Dict[float, float]] = {}
    for bench, gb in (("PiEst", 0.0625), ("Sort", 0.5)):
        base = _interference_run(bench, gb, seed=seed)
        out[bench] = {
            mbps: _interference_run(bench, gb, background_io_mbps=mbps, seed=seed)
            / base
            for mbps in io_loads_mbps
        }
    return out


def _fit(curves: Dict[str, Dict[float, float]], model_cls, params) -> Dict:
    out: Dict[str, Dict[str, float]] = {}
    for bench, curve in curves.items():
        xs, ys = list(curve), list(curve.values())
        model = model_cls().fit(xs, ys)
        out[bench] = {p: getattr(model, p) for p in params}
        out[bench]["r2"] = model.score(xs, ys)
    return out


def fit_curves(
    fig6b_curves: Optional[Dict[str, Dict[float, float]]] = None,
    fig6c_curves: Optional[Dict[str, Dict[float, float]]] = None,
) -> Dict[str, Dict]:
    """The paper's interference models fitted to measured curves.

    6(b): ``y = slope * x + intercept`` per benchmark (x in % of one
    core); 6(c): ``y = a * exp(b * x) + c`` per benchmark (x in MB/s).
    Each fit carries its R² on the points it was fitted to.
    """
    fits: Dict[str, Dict] = {}
    if fig6b_curves is not None:
        fits["fig6b"] = _fit(fig6b_curves, LinearModel, ("slope", "intercept"))
    if fig6c_curves is not None:
        fits["fig6c"] = _fit(fig6c_curves, ExponentialModel, ("a", "b", "c"))
    return fits


def run(
    scale=None,
    seed: int = 7,
    parts: Sequence[str] = ("fig6a", "fig6b", "fig6c"),
) -> Dict[str, Dict]:
    """Sweep cell: profiling accuracy + interference curves and fits.

    The interference study runs on a fixed quad-core host (as in the
    paper), so ``scale`` is accepted but unused; fig6a's profiling grid
    is deterministic and seed-free by construction.
    """
    from repro.experiments.common import as_tuple

    del scale
    parts = as_tuple(parts)
    unknown = set(parts) - {"fig6a", "fig6b", "fig6c"}
    if unknown:
        raise ValueError(f"unknown fig06 parts {sorted(unknown)}")
    out: Dict[str, Dict] = {}
    if "fig6a" in parts:
        out["fig6a"] = fig6a()
    if "fig6b" in parts:
        out["fig6b"] = fig6b(seed=seed)
    if "fig6c" in parts:
        out["fig6c"] = fig6c(seed=seed)
    if "fig6b" in out or "fig6c" in out:
        out["fits"] = fit_curves(out.get("fig6b"), out.get("fig6c"))
    return out
