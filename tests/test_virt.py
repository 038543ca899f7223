"""Tests for VMs, overheads, throttling and live migration."""

import math

import pytest

from repro.cluster.cluster import Cluster
from repro.virt.migration import LiveMigration
from repro.virt.overheads import DEFAULT_OVERHEADS, OverheadModel
from repro.virt.vm import VirtualMachine


# ----------------------------------------------------------------------
# OverheadModel
# ----------------------------------------------------------------------
def test_cpu_efficiency_degrades_with_density():
    m = DEFAULT_OVERHEADS
    assert m.vm_cpu_efficiency(1) == pytest.approx(m.cpu_eff)
    assert m.vm_cpu_efficiency(4) < m.vm_cpu_efficiency(2) < m.vm_cpu_efficiency(1)


def test_io_efficiency_degrades_with_density():
    m = DEFAULT_OVERHEADS
    assert m.vm_io_efficiency(4) < m.vm_io_efficiency(1)


def test_sustained_penalty_grows_with_data():
    m = DEFAULT_OVERHEADS
    assert m.sustained_io_penalty(0) == 0.0
    assert m.sustained_io_penalty(16) > m.sustained_io_penalty(1) > 0


def test_efficiency_floor_holds():
    m = OverheadModel(io_density_penalty=0.2)
    assert m.vm_io_efficiency(100) == m.floor


def test_overhead_validation():
    with pytest.raises(ValueError):
        OverheadModel(cpu_eff=1.5)


# ----------------------------------------------------------------------
# VirtualMachine semantics
# ----------------------------------------------------------------------
def test_vm_cpu_capped_at_vcpu(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    done = []
    vm.run_cpu(10.0, on_complete=lambda: done.append(sim.now), cap=2.0)
    sim.run()
    # 1 vCPU cap and ~0.938 efficiency at 2 VMs/PM
    assert done[0] == pytest.approx(10.0 / 0.938, rel=0.01)


def test_vm_tasks_share_the_vcpu(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    done = {}
    vm.run_cpu(10.0, on_complete=lambda: done.setdefault("a", sim.now))
    vm.run_cpu(10.0, on_complete=lambda: done.setdefault("b", sim.now))
    sim.run()
    assert done["a"] > 15.0  # two tasks timeshare one vCPU


def test_vm_pause_stalls_and_resume_restores(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    done = []
    vm.run_cpu(10.0, on_complete=lambda: done.append(sim.now))
    sim.schedule(1.0, vm.pause)
    sim.schedule(11.0, vm.resume)
    sim.run()
    assert done[0] == pytest.approx(10.0 / 0.938 + 10.0, rel=0.01)


def test_vm_io_limit_throttles(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    done = []
    vm.set_io_limit(5.0)
    vm.run_disk(50.0, on_complete=lambda: done.append(sim.now))
    sim.run()
    assert done[0] >= 50.0 / 5.0


def test_vm_io_limit_removal(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    done = []
    vm.set_io_limit(1.0)
    vm.run_disk(60.0, on_complete=lambda: done.append(sim.now))
    sim.schedule(1.0, lambda: vm.set_io_limit(None))
    sim.run()
    assert done[0] < 10.0


def test_vm_cpu_fraction_above_one_is_work_conserving(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    vm.set_cpu_fraction(2.0)
    done = {}
    vm.run_cpu(10.0, on_complete=lambda: done.setdefault("a", sim.now), cap=2.0)
    vm.run_cpu(10.0, on_complete=lambda: done.setdefault("b", sim.now), cap=2.0)
    sim.run()
    # with 2.0 fraction the two tasks can use both host cores
    assert done["a"] == pytest.approx(10.0 / 0.938, rel=0.02)


def test_vm_cpu_fraction_clamped_to_host(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    vm.set_cpu_fraction(100.0)
    assert vm.cpu_fraction == pytest.approx(2.0)  # dual-core host, 1 vCPU


def test_mixed_workload_penalty_applies(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    base = vm.disk_efficiency()
    vm.run_cpu(math.inf, cap=0.5)
    vm.run_disk(math.inf, cap=5.0)
    assert vm.disk_efficiency() == pytest.approx(
        base - DEFAULT_OVERHEADS.mixed_workload_penalty
    )


def test_balloon_changes_capacity(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    vm.balloon_to(2048.0)
    assert vm.mem_capacity_mb == 2048.0
    with pytest.raises(ValueError):
        vm.balloon_to(0)


def test_vm_has_own_network_endpoint(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    assert vm.host == vm.name
    assert virtual_cluster.fabric.has_host(vm.name)
    # co-located with its PM's group
    assert virtual_cluster.fabric.colocated(vm.name, virtual_cluster.vms[1].name)


def test_vm_density_change_refreshes_efficiency(sim):
    cluster = Cluster.virtual(sim, 1, 1)
    vm = cluster.vms[0]
    eff_single = vm.cpu_efficiency()
    cluster.add_vm(cluster.pms[0])
    assert vm.cpu_efficiency() < eff_single


# ----------------------------------------------------------------------
# the share rule: what each context kind gives its in-flight entries
# ----------------------------------------------------------------------
def _start_mixed_work(ctx):
    """Two CPU entries (requested caps 0.2 and 1.0), one disk entry with
    an I/O penalty and one page-cache entry, all open-ended."""
    return [
        ctx.run_cpu(math.inf, cap=0.2),
        ctx.run_cpu(math.inf, cap=1.0),
        ctx.run_disk(math.inf, cap=40.0, efficiency_penalty=0.05),
        ctx.run_disk(math.inf, cached=True),
    ]


def _shares(entries):
    return [(e.cap, e.weight, e.efficiency) for e in entries]


def test_vm_share_rule_pins_every_inflight_entry(sim):
    vm = Cluster.virtual(sim, 1, 2).vms[0]  # 1 vCPU on a 2-core host
    entries = _start_mixed_work(vm)
    m = DEFAULT_OVERHEADS
    cpu_eff = m.vm_cpu_efficiency(2)
    # CPU and disk work at once: the mixed-workload penalty applies
    disk_eff = m.vm_io_efficiency(2) - m.mixed_workload_penalty - 0.05

    # two CPU entries split one vCPU and one VM weight
    assert _shares(entries) == [
        (0.2, 0.5, cpu_eff),
        (0.5, 0.5, cpu_eff),
        (40.0, 1.0, disk_eff),
        (math.inf, 1.0, 0.95),
    ]
    vm.set_cpu_fraction(2.0)
    assert _shares(entries)[:2] == [(0.2, 0.5, cpu_eff), (1.0, 0.5, cpu_eff)]
    vm.set_io_limit(10.0)
    assert _shares(entries)[2:] == [(10.0, 1.0, disk_eff), (math.inf, 1.0, 0.95)]
    vm.set_io_weight(3.0)
    throttled = [
        (0.2, 0.5, cpu_eff),
        (1.0, 0.5, cpu_eff),
        (10.0, 3.0, disk_eff),
        (math.inf, 1.0, 0.95),
    ]
    assert _shares(entries) == throttled
    vm.pause()
    assert _shares(entries) == [
        (0.0, 0.5, cpu_eff),
        (0.0, 0.5, cpu_eff),
        (0.0, 3.0, disk_eff),
        (0.0, 1.0, 0.95),
    ]
    vm.resume()
    assert _shares(entries) == throttled


def test_native_share_rule_keeps_requests_and_tracks_efficiency(sim):
    ctx = Cluster.native(sim, 1).pms[0].native
    entries = _start_mixed_work(ctx)
    requested = [(0.2, 1.0), (1.0, 1.0), (40.0, 1.0), (math.inf, 1.0)]
    assert _shares(entries) == [
        (0.2, 1.0, 1.0),
        (1.0, 1.0, 1.0),
        (40.0, 1.0, 0.95),
        (math.inf, 1.0, 1.0),
    ]
    # 150% memory use: CPU work pages, at 1 - 0.6 * 0.5 of its speed
    ctx.alloc_mem(1.5 * ctx.mem_capacity_mb)
    pressure = ctx.memory_pressure_factor()
    assert pressure == pytest.approx(0.7)
    assert [e.efficiency for e in entries] == [pressure, pressure, 0.95, 1.0]
    ctx.set_degradation(cpu=0.5, disk=0.5)
    assert [(c, w) for c, w, _ in _shares(entries)] == requested
    assert [e.efficiency for e in entries] == [
        pressure * 0.5,
        pressure * 0.5,
        0.5 - 0.05,
        1.0,
    ]


def test_open_ended_entry_keeps_its_cap_through_churn(sim, monkeypatch):
    vm = Cluster.virtual(sim, 1, 2).vms[0]
    service = vm.run_cpu(math.inf, cap=0.3)
    refreshes = []
    refresh = VirtualMachine.refresh_entries

    def checked_refresh(self):
        refresh(self)
        if self is not vm:
            return
        live = [e for e in vm._cpu_entries if not e.done]
        share = max(vm.spec.cpu_cores * vm.cpu_fraction / len(live), 1e-6)
        assert service.cap == min(0.3, share)
        assert service.weight == vm.vm_weight / len(live)
        refreshes.append(len(live))

    # VMs are slotted: patch the class, and check this guest only
    monkeypatch.setattr(VirtualMachine, "refresh_entries", checked_refresh)
    short = []
    for i in range(200):
        # bursts of four: each start cuts the share, down to a fifth
        sim.schedule(0.25 * (i // 4), lambda: short.append(vm.run_cpu(0.04)))
    sim.run()
    assert len(short) == 200 and all(e.done for e in short)
    assert len(refreshes) == 200 and max(refreshes) == 5
    assert vm.active_cpu_entries == 1  # prunes the finished entries
    assert vm._cpu_entries == {service: 0.3}

    # a finished entry's new request is ignored, not re-recorded; the
    # refresh hands the open-ended entry its whole request back
    maps = (dict(vm._cpu_entries), dict(vm._disk_entries), dict(vm._memio_entries))
    vm.update_requested_caps([(short[-1], 5.0)])
    assert (vm._cpu_entries, vm._disk_entries, vm._memio_entries) == maps
    assert service.cap == 0.3


def test_paused_vm_freezes_page_cache_io_started_while_paused(sim):
    vm = Cluster.virtual(sim, 1, 2).vms[0]
    vm.pause()
    done = []
    entry = vm.run_disk(100.0, on_complete=lambda: done.append(sim.now), cached=True)
    sim.run(until=10.0)
    assert not done
    assert entry.work_remaining == 100.0
    vm.resume()
    sim.run()
    # 100 MB through the page cache at 400 MB/s, 95% efficient in a guest
    assert done == [pytest.approx(10.0 + 100.0 / (400.0 * 0.95))]


# ----------------------------------------------------------------------
# LiveMigration
# ----------------------------------------------------------------------
def test_migration_moves_vm_and_records(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    src = vm.pm
    dst = virtual_cluster.pms[2]
    records = []
    LiveMigration(sim, virtual_cluster.fabric, vm, dst, on_complete=records.append)
    sim.run()
    assert vm.pm is dst
    assert records[0].src == src.name and records[0].dst == dst.name
    assert records[0].migration_time_s > 0
    assert records[0].downtime_ms > 0
    # the fabric group followed the VM
    assert virtual_cluster.fabric.colocated(vm.name, dst.name)


def test_migration_requeues_inflight_work(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    done = []
    vm.run_cpu(100.0, on_complete=lambda: done.append(sim.now))
    LiveMigration(sim, virtual_cluster.fabric, vm, virtual_cluster.pms[3])
    sim.run()
    assert len(done) == 1  # work survived the migration


def test_busy_vm_migrates_slower_than_idle(sim):
    def measure(busy):
        local_sim_cluster = Cluster.virtual(sim.__class__(seed=9), 2, 2)
        local_sim = local_sim_cluster.sim
        vm = local_sim_cluster.vms[0]
        if busy:
            vm.run_cpu(1e6, cap=1.0)
            vm.run_disk(1e6)
        records = []
        LiveMigration(
            local_sim, local_sim_cluster.fabric, vm,
            local_sim_cluster.pms[1], on_complete=records.append,
        )
        local_sim.run(until=1000.0)
        return records[0]

    idle = measure(False)
    busy = measure(True)
    assert busy.migration_time_s > idle.migration_time_s
    assert busy.downtime_ms > idle.downtime_ms


def test_migration_extra_data_payload(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    base, heavy = [], []
    LiveMigration(sim, virtual_cluster.fabric, vm, virtual_cluster.pms[2],
                  on_complete=base.append)
    sim.run()
    LiveMigration(sim, virtual_cluster.fabric, vm, virtual_cluster.pms[3],
                  on_complete=heavy.append, extra_data_mb=2000.0)
    sim.run()
    assert heavy[0].migration_time_s > base[0].migration_time_s


def test_migration_to_same_host_rejected(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    with pytest.raises(ValueError):
        LiveMigration(sim, virtual_cluster.fabric, vm, vm.pm)
