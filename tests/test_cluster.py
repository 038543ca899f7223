"""Tests for resources, machines, power and cluster assembly."""

import gc
import math
import tracemalloc

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.machine import NativeContext, PhysicalMachine
from repro.cluster.power import EnergyMeter, PowerModel
from repro.cluster.resources import DEFAULT_PM_SPEC, Resources
from repro.mapreduce.cluster import MapReduceCluster
from repro.mapreduce.tracker import TaskTracker
from repro.sim.engine import Simulator
from repro.sim.pool import ResourcePool
from repro.virt.vm import Dom0Context, VirtualMachine


# ----------------------------------------------------------------------
# Resources
# ----------------------------------------------------------------------
def test_resources_arithmetic():
    a = Resources(2, 1024, 75, 119)
    b = Resources(1, 512, 25, 19)
    assert (a + b).cpu_cores == 3
    assert (a - b).mem_mb == 512
    assert a.scaled(2).disk_mbps == 150


def test_resources_subtraction_floors_at_zero():
    a = Resources(1, 100, 10, 10)
    b = Resources(2, 200, 20, 20)
    out = a - b
    assert out.cpu_cores == 0 and out.mem_mb == 0


def test_resources_fits_in():
    small = Resources(1, 512, 10, 10)
    big = Resources(2, 1024, 75, 119)
    assert small.fits_in(big)
    assert not big.fits_in(small)


def test_resources_rejects_negative():
    with pytest.raises(ValueError):
        Resources(cpu_cores=-1)


# ----------------------------------------------------------------------
# PowerModel / EnergyMeter
# ----------------------------------------------------------------------
def test_power_linear_curve():
    model = PowerModel(idle_watts=100, peak_watts=200)
    assert model.power(0.0) == 100
    assert model.power(0.5) == 150
    assert model.power(1.0) == 200
    assert model.power(2.0) == 200  # clamped
    assert model.power(0.5, powered_on=False) == 0.0


def test_power_model_validation():
    with pytest.raises(ValueError):
        PowerModel(idle_watts=300, peak_watts=200)


def test_energy_meter_integrates_idle_power(sim, native_cluster):
    meter = EnergyMeter(sim, native_cluster.pms, sample_interval=1.0)
    sim.run(until=10.0)
    meter.stop()
    # 4 idle PMs at 150 W for 10 s
    assert meter.energy_joules == pytest.approx(4 * 150 * 10, rel=0.01)
    assert meter.mean_power() == pytest.approx(600.0, rel=0.01)


def test_energy_meter_sees_load(sim, native_cluster):
    meter = EnergyMeter(sim, native_cluster.pms, sample_interval=1.0)
    pm = native_cluster.pms[0]
    pm.native.run_cpu(math.inf, cap=2.0)
    sim.run(until=10.0)
    meter.stop()
    assert meter.energy_joules > 4 * 150 * 10


# ----------------------------------------------------------------------
# PhysicalMachine / contexts
# ----------------------------------------------------------------------
def test_native_context_runs_at_full_efficiency(sim, native_cluster):
    ctx = native_cluster.pms[0].native
    done = []
    ctx.run_cpu(10.0, on_complete=lambda: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(10.0)]


def test_single_thread_cap_holds(sim, native_cluster):
    ctx = native_cluster.pms[0].native  # 2 cores
    done = []
    ctx.run_cpu(10.0, on_complete=lambda: done.append(sim.now), cap=1.0)
    sim.run()
    assert done == [pytest.approx(10.0)]  # not 5.0


def test_memory_pressure_slows_cpu(sim, native_cluster):
    ctx = native_cluster.pms[0].native
    ctx.alloc_mem(ctx.mem_capacity_mb * 1.5)  # 50% overcommit
    assert ctx.memory_pressure_factor() < 1.0
    done = []
    ctx.run_cpu(10.0, on_complete=lambda: done.append(sim.now), cap=1.0)
    sim.run()
    assert done[0] > 10.0


def test_free_mem_restores_factor(sim, native_cluster):
    ctx = native_cluster.pms[0].native
    ctx.alloc_mem(ctx.mem_capacity_mb * 2)
    assert ctx.memory_pressure_factor() < 1.0
    ctx.free_mem(ctx.mem_capacity_mb * 2)
    assert ctx.memory_pressure_factor() == 1.0


def test_cached_io_uses_memio_pool(sim, native_cluster):
    pm = native_cluster.pms[0]
    done = {}
    pm.native.run_disk(400.0, on_complete=lambda: done.setdefault("mem", sim.now), cached=True)
    sim.run()
    assert done["mem"] == pytest.approx(1.0)  # 400 MB at 400 MB/s
    assert pm.disk_pool.busy_integral == 0.0


def test_power_off_requires_idle(sim, virtual_cluster):
    pm = virtual_cluster.pms[0]
    with pytest.raises(RuntimeError):
        pm.power_off()  # hosts VMs
    empty = virtual_cluster.add_pm("extra")
    empty.power_off()
    assert not empty.powered_on
    assert empty.current_power_watts() == 0.0


# ----------------------------------------------------------------------
# Cluster assembly
# ----------------------------------------------------------------------
def test_native_cluster_shape(native_cluster):
    assert len(native_cluster.pms) == 4
    assert len(native_cluster.vms) == 0
    assert len(native_cluster.native_contexts()) == 4


def test_virtual_cluster_shape(virtual_cluster):
    assert len(virtual_cluster.pms) == 4
    assert len(virtual_cluster.vms) == 8
    assert all(pm.vm_count == 2 for pm in virtual_cluster.pms)
    assert virtual_cluster.native_contexts() == []


def test_hybrid_cluster_shape(hybrid_cluster):
    assert len(hybrid_cluster.pms) == 4
    assert len(hybrid_cluster.vms) == 4
    assert len(hybrid_cluster.native_pms) == 2
    assert len(hybrid_cluster.virtualized_pms) == 2
    assert len(hybrid_cluster.all_contexts()) == 6


def test_dom0_context(sim, native_cluster):
    dom0 = native_cluster.dom0(native_cluster.pms[0])
    assert dom0.cpu_efficiency() == pytest.approx(0.98)
    assert not dom0.is_virtual


def test_find_vm(virtual_cluster):
    vm = virtual_cluster.vms[3]
    assert virtual_cluster.find_vm(vm.name) is vm
    with pytest.raises(KeyError):
        virtual_cluster.find_vm("missing")


def test_powered_servers_counts(virtual_cluster):
    assert virtual_cluster.powered_servers() == 4


def test_utilization_aggregates(sim, native_cluster):
    native_cluster.pms[0].native.run_cpu(math.inf, cap=2.0)
    assert 0.0 < native_cluster.instantaneous_utilization() <= 1.0


def _fleet(pms):
    sim = Simulator(seed=1)
    cluster = Cluster.virtual(sim, pms, 2)
    return cluster, MapReduceCluster(sim, cluster.fabric, list(cluster.vms))


def test_fleet_build_footprint():
    """Per-host state the cyclic collector can skip: the per-host
    classes are slotted, and the per-host collections that are empty at
    build time (pool entries, a tracker's running attempts) are dicts,
    which CPython does not track while empty.  With lists the same build
    holds 7.0 tracked objects per host.  The fabric keeps a link's flow
    map only while the link carries flows, so a fleet with none in flight
    holds no per-link map: with four empty maps per host the build keeps
    1,547 traced bytes per host (Python 3.11), without them 1,260."""
    _fleet(1)  # loads every module the build imports lazily
    gc.collect()
    before = len(gc.get_objects())
    tracemalloc.start()
    try:
        traced_before = tracemalloc.get_traced_memory()[0]
        cluster, mr = _fleet(500)
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0] - traced_before
    finally:
        tracemalloc.stop()
    hosts = len(cluster.pms) + len(cluster.vms)
    assert hosts == 1500 and len(mr.trackers) == 1000
    assert (len(gc.get_objects()) - before) / hosts <= 5.5
    assert traced / hosts <= 1350, traced / hosts
    fabric = cluster.fabric
    assert (fabric._up_flows, fabric._down_flows, fabric._loop_out,
            fabric._loop_in) == ({}, {}, {}, {})

    records = [cluster.dom0(cluster.pms[0]), *mr.trackers]
    for pm in cluster.pms:
        records += [pm, pm.native, pm.cpu_pool, pm.disk_pool, pm.memio_pool, *pm.vms]
    assert {type(r) for r in records} == {
        Dom0Context, TaskTracker, PhysicalMachine, NativeContext, ResourcePool,
        VirtualMachine,
    }
    assert not [r for r in records if hasattr(r, "__dict__")]
