"""Edge-case tests across modules: mid-run parameter changes, empty
phases, boundary configurations."""

import math

import pytest

from repro.cluster.cluster import Cluster
from repro.mapreduce.cluster import MapReduceCluster
from repro.sim.engine import Simulator
from repro.sim.pool import ResourcePool
from repro.workloads.specs import make_job


# ----------------------------------------------------------------------
# pools under mid-run mutation
# ----------------------------------------------------------------------
def test_pool_efficiency_change_midrun(sim):
    pool = ResourcePool(sim, 10.0)
    done = []
    entry = pool.add(100.0, on_complete=lambda: done.append(sim.now))

    def slow_down():
        pool.begin_batch()
        entry.set_efficiency(0.5)
        pool.end_batch()

    sim.schedule(5.0, slow_down)
    sim.run()
    # 50 done by t=5 at full speed; remaining 50 at 5/s useful -> t=15
    assert done == [pytest.approx(15.0)]


def test_pool_weight_change_midrun(sim):
    pool = ResourcePool(sim, 10.0)
    done = {}
    a = pool.add(100.0, on_complete=lambda: done.setdefault("a", sim.now))
    pool.add(100.0, on_complete=lambda: done.setdefault("b", sim.now))

    def favour_a():
        pool.begin_batch()
        a.set_weight(4.0)
        pool.end_batch()

    sim.schedule(2.0, favour_a)
    sim.run()
    assert done["a"] < done["b"]


def test_pool_cap_tightened_midrun(sim):
    pool = ResourcePool(sim, 10.0)
    done = []
    entry = pool.add(100.0, on_complete=lambda: done.append(sim.now))

    def tighten():
        pool.begin_batch()
        entry.set_cap(2.5)
        pool.end_batch()

    sim.schedule(5.0, tighten)
    sim.run()
    # 50 by t=5, remaining 50 at 2.5/s -> t=25
    assert done == [pytest.approx(25.0)]


def test_pool_remove_open_entry_frees_capacity(sim):
    pool = ResourcePool(sim, 10.0)
    hog = pool.add(math.inf)
    done = []
    pool.add(50.0, on_complete=lambda: done.append(sim.now))
    sim.schedule(2.0, lambda: pool.remove(hog))
    sim.run()
    # 2s at 5/s = 10 done, then 40 at 10/s -> t=6
    assert done == [pytest.approx(6.0)]


# ----------------------------------------------------------------------
# network under regrouping and cancellation
# ----------------------------------------------------------------------
def test_regroup_midflow_keeps_flow_running(sim):
    from repro.sim.network import NetworkFabric

    fabric = NetworkFabric(sim)
    fabric.register_host("a", up_mbps=10, down_mbps=10, group="g1")
    fabric.register_host("b", up_mbps=10, down_mbps=10, group="g2")
    done = []
    fabric.start_flow("a", "b", 100.0, on_complete=lambda: done.append(sim.now))
    # regrouping an *uninvolved direction* mid-flight must not corrupt state
    sim.schedule(1.0, lambda: fabric.set_group("a", "g3"))
    sim.run()
    assert len(done) == 1


def test_vm_migration_regroups_future_flows(sim, virtual_cluster):
    from repro.virt.migration import LiveMigration

    vm = virtual_cluster.vms[0]
    sibling = virtual_cluster.vms[1]
    assert virtual_cluster.fabric.colocated(vm.name, sibling.name)
    LiveMigration(sim, virtual_cluster.fabric, vm, virtual_cluster.pms[3])
    sim.run()
    assert not virtual_cluster.fabric.colocated(vm.name, sibling.name)


# ----------------------------------------------------------------------
# contexts
# ----------------------------------------------------------------------
def test_mixed_penalty_recovers_after_cpu_ends(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    base = vm.disk_efficiency()
    cpu = vm.run_cpu(math.inf, cap=0.5)
    vm.run_disk(math.inf, cap=1.0)
    assert vm.disk_efficiency() < base
    vm.pm.cpu_pool.remove(cpu)
    vm.refresh_entries()
    assert vm.disk_efficiency() == pytest.approx(base)


def test_dom0_disk_faster_than_guest(sim, virtual_cluster):
    pm = virtual_cluster.pms[0]
    dom0 = virtual_cluster.dom0(pm)
    assert dom0.disk_efficiency() > virtual_cluster.vms[0].disk_efficiency()


def test_io_weight_requires_positive(sim, virtual_cluster):
    with pytest.raises(ValueError):
        virtual_cluster.vms[0].set_io_weight(0.0)


# ----------------------------------------------------------------------
# map-only jobs and tiny configurations
# ----------------------------------------------------------------------
def test_map_only_job_completes(sim, native_cluster):
    mr = MapReduceCluster(sim, native_cluster.fabric, native_cluster.native_contexts())
    job = mr.run_job(make_job("DistGrep", input_gb=0.25, num_reducers=0))
    assert job.done
    assert job.reduce_tasks == []
    assert job.reduce_phase_time == pytest.approx(0.0, abs=1.0)


def test_single_node_cluster_runs_jobs(sim):
    cluster = Cluster.native(sim, 1)
    mr = MapReduceCluster(
        sim, cluster.fabric, cluster.native_contexts(), replication=1
    )
    job = mr.run_job(make_job("Wcount", input_gb=0.25, num_reducers=1))
    assert job.done


def test_job_smaller_than_one_block(sim, native_cluster):
    mr = MapReduceCluster(sim, native_cluster.fabric, native_cluster.native_contexts())
    job = mr.run_job(make_job("Sort", input_gb=0.01, num_reducers=1))
    assert len(job.map_tasks) == 1
    assert job.done


def test_shutdown_is_idempotent(sim, native_cluster):
    mr = MapReduceCluster(sim, native_cluster.fabric, native_cluster.native_contexts())
    mr.jt.shutdown()
    mr.jt.shutdown()


def test_kill_job_midshuffle_cleans_up(sim, native_cluster):
    mr = MapReduceCluster(sim, native_cluster.fabric, native_cluster.native_contexts())
    job = mr.submit(make_job("Sort", input_gb=1.0, num_reducers=4))

    def kill_when_shuffling():
        if 0 < job.maps_completed < len(job.map_tasks):
            mr.jt.kill_job(job)
        elif not job.done:
            sim.schedule(0.5, kill_when_shuffling)

    sim.schedule(0.5, kill_when_shuffling)
    sim.run(until=120.0)
    assert job.done
    assert all(len(t.running) == 0 for t in mr.trackers)
    # orphaned attempt outputs were deleted
    assert not [n for n in mr.fs.namenode.files if n.endswith(".out")]
    mr.jt.shutdown()


# ----------------------------------------------------------------------
# interactive corner cases
# ----------------------------------------------------------------------
def test_step_load_ramp_shifts_latency(sim, virtual_cluster):
    from repro.interactive.loadgen import StepLoad
    from repro.interactive.service import RUBIS, InteractiveService

    svc = InteractiveService(
        sim, "s", RUBIS, virtual_cluster.vms[:1],
        StepLoad([(0.0, 50), (60.0, 4000)]),
    )
    svc.start()
    sim.run(until=50.0)
    calm = svc.current_latency_ms
    sim.run(until=120.0)
    assert svc.current_latency_ms > calm * 10


def test_sinusoid_phase_offset():
    from repro.interactive.loadgen import SinusoidLoad

    a = SinusoidLoad(0, 100, period_s=100.0)
    b = SinusoidLoad(0, 100, period_s=100.0, phase=3.14159)
    assert a.clients(25) != b.clients(25)


def test_service_on_paused_vm_reports_starvation(sim, virtual_cluster):
    from repro.interactive.loadgen import ConstantLoad
    from repro.interactive.service import RUBIS, InteractiveService

    vm = virtual_cluster.vms[0]
    svc = InteractiveService(sim, "s", RUBIS, [vm], ConstantLoad(500))
    svc.start()
    sim.run(until=20.0)
    vm.pause()
    sim.run(until=60.0)
    assert svc.current_latency_ms > svc.sla_ms


# ----------------------------------------------------------------------
# profiling corner cases
# ----------------------------------------------------------------------
def test_composed_estimate_path():
    from repro.core.profiling import ProfileDatabase, ProfileRecord

    db = ProfileDatabase()
    db.add(ProfileRecord("Sort", True, 4, 2.0, 100.0, 60.0, 40.0))
    est = db.estimate("Sort", True, 8, 4.0)  # nothing matches directly
    assert est.method == "composed"
    # 2x data, 2x cluster: map scales 2 * 0.5 = 1x, reduce 2 * sqrt(0.5)
    assert est.map_time_s == pytest.approx(60.0)
    assert est.reduce_time_s == pytest.approx(80.0 * math.sqrt(0.5))


def test_energy_meter_validation(sim, native_cluster):
    from repro.cluster.power import EnergyMeter

    with pytest.raises(ValueError):
        EnergyMeter(sim, native_cluster.pms, sample_interval=0.0)


def test_ips_migration_carries_datanode_payload():
    """Combined-architecture VMs drag their HDFS blocks along."""
    from repro.core.scheduler import HybridMRConfig, HybridMRScheduler

    sim = Simulator(seed=12)
    cluster = Cluster.virtual(sim, 2, 2)
    scheduler = HybridMRScheduler(
        sim, cluster.fabric, [], list(cluster.vms), cluster.pms,
        config=HybridMRConfig(phase1_enabled=False),
    )
    scheduler.start()
    scheduler.virtual_mr.fs.preload_file("resident", 512.0)
    vm = cluster.vms[0]
    payload = scheduler._datanode_payload(vm)
    datanode = scheduler.virtual_mr.fs.datanode_on_context(vm)
    assert payload == pytest.approx(datanode.used_mb)
    assert payload > 0
    scheduler.stop()
