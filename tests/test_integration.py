"""Cross-module integration tests: full HybridMR scenarios."""

import pytest

from repro.cluster.cluster import Cluster
from repro.core.placement import Placement
from repro.core.profiling import JobProfiler
from repro.core.scheduler import HybridMRConfig, HybridMRScheduler
from repro.interactive.loadgen import ConstantLoad, StepLoad
from repro.interactive.service import RUBIS, InteractiveService
from repro.sim.engine import Simulator
from repro.virt.migration import LiveMigration
from repro.workloads.specs import make_job


def build_world(seed=11, clients=800, phase1_db=None, **config_kwargs):
    sim = Simulator(seed=seed)
    cluster = Cluster.hybrid(sim, 3, 3, vms_per_pm=3)
    vms = cluster.vms
    service_vms = [vms[i] for i in range(0, len(vms), 3)]
    batch_vms = [vm for vm in vms if vm not in service_vms]
    service = InteractiveService(sim, "rubis", RUBIS, service_vms, ConstantLoad(clients))
    scheduler = HybridMRScheduler(
        sim,
        cluster.fabric,
        cluster.native_contexts(),
        batch_vms,
        cluster.pms,
        services=[service],
        profile_db=phase1_db,
        config=HybridMRConfig(**config_kwargs),
    )
    scheduler.start()
    return sim, cluster, service, scheduler


def test_full_stack_mixed_workload_completes():
    sim, cluster, service, scheduler = build_world()
    jobs = scheduler.run_batch(
        [
            make_job("Sort", input_gb=0.5, num_reducers=3, name="s1"),
            make_job("Kmeans", input_gb=0.5, num_reducers=3, name="k1"),
            make_job("Wcount", input_gb=0.5, num_reducers=3, name="w1"),
        ]
    )
    assert all(j.done for j in jobs)
    assert service.mean_latency_ms() < service.sla_ms * 5
    scheduler.stop()


def test_trained_phase1_separates_classes():
    profiler = JobProfiler(repeats=1)
    for bench in ("Sort", "PiEst"):
        for gb in (0.4, 0.8):
            profiler.profile(bench, gb, 3, virtual=False)
            profiler.profile(bench, gb, 6, virtual=True, vms_per_pm=3)
    sim, cluster, service, scheduler = build_world(phase1_db=profiler.db)
    sort_spec = make_job("Sort", input_gb=0.6, num_reducers=3, name="s")
    pi_spec = make_job("PiEst", num_reducers=3, name="p")
    est_sort_native = profiler.db.estimate("Sort", False, 3, 0.6)
    sort_spec.desired_jct_s = 1.1 * est_sort_native.jct_s
    est_pi_virtual = profiler.db.estimate("PiEst", True, 6, pi_spec.input_gb)
    pi_spec.desired_jct_s = 3.0 * est_pi_virtual.jct_s
    p_sort, _ = scheduler.submit(sort_spec)
    p_pi, _ = scheduler.submit(pi_spec)
    assert p_sort is Placement.PHYSICAL
    assert p_pi is Placement.VIRTUAL
    scheduler.stop()


def test_sla_recovery_story():
    """The Figure 9(a) narrative: breach then recovery."""
    sim, cluster, service, scheduler = build_world(
        clients=1100, phase1_enabled=False
    )
    sim.run(until=120.0)
    healthy = service.current_latency_ms
    assert healthy < service.sla_ms
    # land the batch on the virtual side where the services live
    for bench in ("Sort", "Twitter"):
        scheduler.virtual_mr.submit(make_job(bench, input_gb=1.5, num_reducers=6))
    sim.run(until=600.0)
    # a violation happened and the IPS acted
    assert any(v > service.sla_ms for _, v in service.latency_trace)
    assert scheduler.ips is not None
    assert any(d.loop == "ips" for d in sim.obs.decisions)
    # after the batch drains, latency is healthy again
    assert service.current_latency_ms < service.sla_ms
    scheduler.stop()


def test_jobs_survive_vm_migration_mid_run():
    sim = Simulator(seed=3)
    cluster = Cluster.virtual(sim, 4, 2)
    from repro.mapreduce.cluster import MapReduceCluster

    mr = MapReduceCluster(sim, cluster.fabric, list(cluster.vms))
    spare = cluster.add_pm("spare")
    job = mr.submit(make_job("Wcount", input_gb=1.0, num_reducers=4))
    moved = []
    sim.schedule(
        5.0,
        lambda: LiveMigration(
            sim, cluster.fabric, cluster.vms[0], spare, on_complete=moved.append
        ),
    )
    sim.run(until=300.0)
    assert moved, "migration never completed"
    assert job.done
    mr.jt.shutdown()


def test_paused_vm_tasks_resume_and_finish():
    sim = Simulator(seed=4)
    cluster = Cluster.virtual(sim, 2, 2)
    from repro.mapreduce.cluster import MapReduceCluster

    mr = MapReduceCluster(sim, cluster.fabric, list(cluster.vms))
    job = mr.submit(make_job("Kmeans", input_gb=0.5, num_reducers=2))
    vm = cluster.vms[0]
    sim.schedule(3.0, vm.pause)
    sim.schedule(30.0, vm.resume)
    sim.run(until=500.0)
    assert job.done
    mr.jt.shutdown()


def test_energy_meter_with_full_workload():
    sim, cluster, service, scheduler = build_world(phase1_enabled=False)
    meter = cluster.start_metering(sample_interval=2.0)
    scheduler.run_batch([make_job("Sort", input_gb=0.5, num_reducers=3)])
    meter.stop()
    assert meter.energy_joules > 0
    assert meter.mean_power() > 150.0 * len(cluster.pms) * 0.9
    scheduler.stop()


def test_determinism_end_to_end():
    def run():
        sim, cluster, service, scheduler = build_world(seed=99)
        jobs = scheduler.run_batch(
            [make_job("Sort", input_gb=0.5, num_reducers=3, name="s")]
        )
        value = (jobs[0].jct, service.mean_latency_ms())
        scheduler.stop()
        return value

    assert run() == run()
