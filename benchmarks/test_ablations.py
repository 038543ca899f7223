"""Ablation benchmarks for the design choices DESIGN.md calls out.

Beyond the paper's own figures:

- Arbiter mitigation ladder: throttle-only vs full ladder vs no IPS;
- Arbiter bin-packing heuristic: BestFit vs FirstFit vs WorstFit;
- scheduler policy: Fair vs FIFO under a mixed batch;
- execution engine (the paper's future work): stock Hadoop vs
  Twister-style cached input vs Spark-style in-memory.
"""

from conftest import emit, run_once

from repro.cluster.cluster import Cluster
from repro.core.ips import Arbiter
from repro.core.scheduler import HybridMRConfig, HybridMRScheduler
from repro.interactive.loadgen import ConstantLoad
from repro.interactive.service import RUBIS, InteractiveService
from repro.mapreduce.cluster import MapReduceCluster
from repro.mapreduce.iterative import IterativeJobRunner, in_memory_engine
from repro.mapreduce.schedulers import FairScheduler, FIFOScheduler
from repro.metrics.report import format_table
from repro.sim.engine import Simulator
from repro.workloads.specs import make_job


# ----------------------------------------------------------------------
# IPS ladder ablation
# ----------------------------------------------------------------------
def _ips_world(seed=5):
    sim = Simulator(seed=seed)
    cluster = Cluster.virtual(sim, 4, 3)
    vms = cluster.vms
    service_vms = [vms[i] for i in range(0, len(vms), 3)]
    batch_vms = [vm for vm in vms if vm not in service_vms]
    service = InteractiveService(sim, "rubis", RUBIS, service_vms, ConstantLoad(1200))
    return sim, cluster, service, batch_vms


def _ladder_run(mode: str) -> dict:
    sim, cluster, service, batch_vms = _ips_world()
    scheduler = HybridMRScheduler(
        sim, cluster.fabric, [], batch_vms, cluster.pms,
        services=[service],
        config=HybridMRConfig(phase1_enabled=False, ips_enabled=(mode != "none")),
        mr_kwargs=dict(map_slots=2, reduce_slots=2),
    )
    if mode == "throttle-only" and scheduler.ips is not None:
        scheduler.ips.max_migrations = 0  # never escalate past pause
    scheduler.start()
    horizon = 400.0
    completed = {"n": 0}

    def stream(bench: str, i: int = 0) -> None:
        # continuous batch pressure for the whole window
        if sim.now >= horizon:
            return
        spec = make_job(bench, input_gb=1.5, num_reducers=8,
                        name=f"{bench.lower()}#{i}")

        def done(_j):
            completed["n"] += 1
            stream(bench, i + 1)

        scheduler.virtual_mr.jt.submit(spec, on_complete=done)

    for bench in ("Sort", "Twitter"):
        stream(bench)
    sim.run(until=horizon)
    out = {
        "latency_ms": service.mean_latency_ms(),
        "violations": service.violation_fraction(),
        "batch_done": completed["n"],
    }
    scheduler.stop()
    return out


def test_ablation_ips_ladder(benchmark):
    result = run_once(
        benchmark,
        lambda: {mode: _ladder_run(mode) for mode in ("none", "throttle-only", "full")},
    )
    rows = [
        [mode, r["latency_ms"], r["violations"], r["batch_done"]]
        for mode, r in result.items()
    ]
    emit(
        "Ablation: IPS mitigation ladder (no IPS vs throttle/pause vs full)",
        format_table(["mode", "mean_latency_ms", "violation_frac", "batch_done"], rows),
    )
    assert result["full"]["violations"] < result["none"]["violations"]
    assert result["throttle-only"]["violations"] < result["none"]["violations"]


# ----------------------------------------------------------------------
# bin-packing heuristic ablation
# ----------------------------------------------------------------------
def _first_fit(vm, candidates, forbidden):
    """FirstFit: the first allowed host the VM fits on."""
    feasible = Arbiter._feasible(vm, candidates, forbidden)
    return feasible[0][1] if feasible else None


def _worst_fit(vm, candidates, forbidden):
    """WorstFit: the allowed host with the most leftover vCPUs."""
    feasible = Arbiter._feasible(vm, candidates, forbidden)
    if not feasible:
        return None
    return max(feasible, key=lambda pair: (pair[0], pair[1].name))[1]


#: the Arbiter's BestFit (Algorithm 3) against the two classic alternatives
HEURISTICS = {
    "best_fit": Arbiter.best_fit,
    "first_fit": _first_fit,
    "worst_fit": _worst_fit,
}


def _heuristic_run(heuristic: str) -> dict:
    """Relocate a stream of batch VMs into a mixed-capacity spare pool
    with each heuristic; measure consolidation quality."""
    place = HEURISTICS[heuristic]
    sim = Simulator(seed=6)
    cluster = Cluster.virtual(sim, 6, 2)
    # 6 movers for 12 free vCPUs, so the heuristics can differ in how
    # many spare hosts they leave idle
    movers = cluster.vms[:6]
    # a spare pool where half the hosts already carry one resident guest
    spares = []
    for i in range(8):
        pm = cluster.add_pm(f"spare{i}")
        if i % 2 == 0:
            cluster.add_vm(pm, name=f"resident{i}")
        spares.append(pm)
    placed = 0
    for vm in movers:
        target = place(vm, spares, set())
        if target is None:
            continue
        vm.relocate(target)
        placed += 1
    return {
        "placed": placed,
        "spares_used": sum(1 for pm in spares if any(v in movers for v in pm.vms)),
        # hosts with no guest at all can be powered off
        "spares_empty": sum(1 for pm in spares if not pm.vms),
        "max_guests": max(pm.vm_count for pm in spares),
    }


def test_ablation_binpacking_heuristics(benchmark):
    result = run_once(
        benchmark,
        lambda: {h: _heuristic_run(h) for h in HEURISTICS},
    )
    columns = ["placed", "spares_used", "spares_empty", "max_guests"]
    rows = [[h] + [r[c] for c in columns] for h, r in result.items()]
    emit(
        "Ablation: Arbiter bin-packing heuristic (6 VM relocations into "
        "a half-loaded 8-host spare pool)",
        format_table(["heuristic"] + columns, rows),
    )
    assert all(r["placed"] == 6 for r in result.values())
    # BestFit consolidates, leaving hosts to power off; WorstFit spreads
    assert result["best_fit"]["spares_empty"] > result["worst_fit"]["spares_empty"]


# ----------------------------------------------------------------------
# Fair vs FIFO
# ----------------------------------------------------------------------
def _sched_run(policy) -> float:
    sim = Simulator(seed=7)
    cluster = Cluster.native(sim, 6)
    mr = MapReduceCluster(
        sim, cluster.fabric, cluster.native_contexts(), scheduler=policy
    )
    jobs = mr.run_jobs([
        make_job("Sort", input_gb=1.5, num_reducers=6, name="big"),
        make_job("DistGrep", input_gb=0.5, num_reducers=6, name="small-1"),
        make_job("PiEst", num_reducers=6, name="small-2"),
    ])
    # mean of the *small* jobs' JCT: fair sharing is about their latency
    return sum(j.jct for j in jobs[1:]) / 2


def test_ablation_fair_vs_fifo(benchmark):
    result = run_once(
        benchmark,
        lambda: {
            "fair": _sched_run(FairScheduler()),
            "fifo": _sched_run(FIFOScheduler()),
        },
    )
    emit(
        "Ablation: Fair vs FIFO scheduling (mean JCT of the small jobs "
        "behind a large one)",
        format_table(
            ["policy", "small_jobs_mean_jct_s"],
            [[k, v] for k, v in result.items()],
        ),
    )
    assert result["fair"] < result["fifo"]


# ----------------------------------------------------------------------
# execution engines (the paper's future work)
# ----------------------------------------------------------------------
def _engine_run(mode: str) -> dict:
    sim = Simulator(seed=5)
    cluster = Cluster.virtual(sim, 4, 2)
    mr = MapReduceCluster(sim, cluster.fabric, list(cluster.vms))
    if mode == "spark":
        in_memory_engine(mr)
    spec = make_job("Kmeans", input_gb=1.0, num_reducers=4)
    result = IterativeJobRunner(
        mr, spec, iterations=4, cache_input=(mode != "hadoop")
    ).run()
    mr.jt.shutdown()
    return {"first": result.first_pass_s, "steady": result.steady_state_s,
            "total": result.total_s}


def test_ablation_iterative_engines(benchmark):
    result = run_once(
        benchmark,
        lambda: {m: _engine_run(m) for m in ("hadoop", "twister", "spark")},
    )
    rows = [[m, r["first"], r["steady"], r["total"]] for m, r in result.items()]
    emit(
        "Ablation: iterative Kmeans (4 passes) across execution engines "
        "(the paper's future work: Twister [17], Spark [37])",
        format_table(["engine", "first_pass_s", "steady_s", "total_s"], rows),
    )
    assert result["twister"]["total"] < result["hadoop"]["total"]
    assert result["spark"]["total"] < result["twister"]["total"]
