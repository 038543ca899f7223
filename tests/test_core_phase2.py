"""Tests for Phase II: DRM, IPS and the HybridMR facade."""

import math
from collections import Counter

import pytest

from repro.cluster.cluster import Cluster
from repro.core.drm import SAMPLE_WINDOW, DynamicResourceManager, LocalResourceManager
from repro.core.ips import Arbiter, InterferencePreventionSystem
from repro.core.scheduler import HybridMRConfig, HybridMRScheduler
from repro.interactive.loadgen import ConstantLoad
from repro.interactive.service import RUBIS, InteractiveService
from repro.interactive.sla import SLAMonitor
from repro.mapreduce.cluster import MapReduceCluster
from repro.sim.engine import Simulator
from repro.virt.vm import VirtualMachine
from repro.workloads.specs import make_job


@pytest.fixture
def virtual_mr(sim, virtual_cluster):
    return MapReduceCluster(
        sim, virtual_cluster.fabric, list(virtual_cluster.vms),
        map_slots=2, reduce_slots=2,
    )


# ----------------------------------------------------------------------
# DRM
# ----------------------------------------------------------------------
def test_drm_enables_dynamic_memory(sim, virtual_cluster, virtual_mr):
    drm = DynamicResourceManager(sim, virtual_mr.jt, list(virtual_cluster.vms))
    assert not virtual_mr.jt.dynamic_memory
    drm.start()
    assert virtual_mr.jt.dynamic_memory


def test_drm_uncaps_starved_vms(sim, virtual_cluster, virtual_mr):
    drm = DynamicResourceManager(
        sim, virtual_mr.jt, list(virtual_cluster.vms),
        manage_memory=False, manage_io=False,
    )
    drm.start()
    # fewer tasks than VMs: hosts keep slack the DRM should grant
    virtual_mr.jt.submit(make_job("Kmeans", input_gb=0.25, num_reducers=2))
    sim.run(until=30.0)
    assert any(d.action == "cpu-uncap" for d in sim.obs.decisions)
    drm.stop()
    virtual_mr.jt.shutdown()


def test_drm_memory_ballooning_moves_capacity(sim, virtual_cluster, virtual_mr):
    drm = DynamicResourceManager(
        sim, virtual_mr.jt, list(virtual_cluster.vms),
        manage_cpu=False, manage_io=False,
    )
    drm.start()
    pm = virtual_cluster.pms[0]
    needy, donor = pm.vms
    needy.alloc_mem(needy.mem_capacity_mb * 1.3)  # paging
    sim.run(until=20.0)
    assert needy.mem_capacity_mb > 1024.0
    assert donor.mem_capacity_mb < 1024.0
    assert any(
        (d.action, d.target, d.inputs["donor"]) == ("balloon", needy.name, donor.name)
        for d in sim.obs.decisions
    )
    drm.stop()
    virtual_mr.jt.shutdown()


def test_drm_io_weight_boosts_tail(sim, virtual_cluster, virtual_mr):
    drm = DynamicResourceManager(
        sim, virtual_mr.jt, list(virtual_cluster.vms),
        manage_cpu=False, manage_memory=False, tail_fraction=2.0,
    )
    drm.start()
    virtual_mr.jt.submit(make_job("Sort", input_gb=0.5, num_reducers=4))
    sim.run(until=6.0)  # mid-run: tail boost active
    assert any(d.action == "io-weight" for d in sim.obs.decisions)
    assert any(vm.io_weight > 1.0 for vm in virtual_cluster.vms)
    sim.run(until=60.0)  # job done: weights return to fair
    drm.stop()
    virtual_mr.jt.shutdown()


def test_drm_ablation_improves_jct(sim):
    def run(managed):
        local = Simulator(seed=17)
        cluster = Cluster.virtual(local, 4, 2)
        mr = MapReduceCluster(local, cluster.fabric, list(cluster.vms),
                              map_slots=2, reduce_slots=2)
        drm = None
        if managed:
            drm = DynamicResourceManager(local, mr.jt, list(cluster.vms))
            drm.start()
        jobs = mr.run_jobs([
            make_job(b, input_gb=1.0, num_reducers=4, name=b.lower())
            for b in ("Sort", "Kmeans", "Wcount")
        ])
        if drm:
            drm.stop()
        return sum(j.jct for j in jobs) / len(jobs)

    assert run(True) < run(False)


def test_lrm_profiles_running_attempts(sim, virtual_cluster, virtual_mr):
    drm = DynamicResourceManager(sim, virtual_mr.jt, list(virtual_cluster.vms))
    drm.start()
    virtual_mr.jt.submit(make_job("Kmeans", input_gb=0.5, num_reducers=2))
    sim.run(until=30.0)
    lrm = next(iter(drm.lrms.values()))
    assert isinstance(lrm, LocalResourceManager)
    assert lrm.samples
    drm.stop()
    virtual_mr.jt.shutdown()


def test_interference_score_reflects_io(sim, virtual_cluster, virtual_mr):
    drm = DynamicResourceManager(sim, virtual_mr.jt, list(virtual_cluster.vms))
    drm.start()
    virtual_mr.jt.submit(make_job("Sort", input_gb=1.0, num_reducers=4))
    sim.run(until=11.0)  # mid-run, after at least two DRM epochs
    attempts = virtual_mr.jt.running_attempts()
    assert attempts, "job finished before the probe -- enlarge the input"
    scores = [drm.interference_score(a) for a in attempts]
    assert any(s > 0 for s in scores)
    drm.stop()
    virtual_mr.jt.shutdown()


# ----------------------------------------------------------------------
# Arbiter heuristics
# ----------------------------------------------------------------------
def test_best_fit_prefers_tightest_host(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    spare_busy = virtual_cluster.pms[2]  # hosts 2 VMs (2 vCPU used of 2)
    empty = virtual_cluster.add_pm("empty")
    target = Arbiter.best_fit(vm, [spare_busy, empty], forbidden=set())
    assert target is empty  # busy host has no vCPU headroom left


def test_best_fit_respects_forbidden(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    empty = virtual_cluster.add_pm("empty")
    assert Arbiter.best_fit(vm, [empty], forbidden={"empty"}) is None


def test_min_min_orders_ascending():
    scored = [(3.0, "c"), (1.0, "a"), (2.0, "b")]
    assert [x for _, x in Arbiter.min_min_order(scored)] == ["a", "b", "c"]


# ----------------------------------------------------------------------
# IPS end to end
# ----------------------------------------------------------------------
def build_ips_world(seed=5, ips_on=True):
    sim = Simulator(seed=seed)
    cluster = Cluster.virtual(sim, 4, 3)
    vms = cluster.vms
    service_vms = [vms[i] for i in range(0, len(vms), 3)]
    batch_vms = [vm for vm in vms if vm not in service_vms]
    service = InteractiveService(sim, "rubis", RUBIS, service_vms, ConstantLoad(1200))
    scheduler = HybridMRScheduler(
        sim, cluster.fabric, [], batch_vms, cluster.pms,
        services=[service],
        config=HybridMRConfig(phase1_enabled=False, ips_enabled=ips_on),
        mr_kwargs=dict(map_slots=2, reduce_slots=2),
    )
    scheduler.start()
    return sim, cluster, service, scheduler


def ips_actions(sim):
    return [d.action for d in sim.obs.decisions if d.loop == "ips"]


def test_ips_throttles_interfering_vms():
    sim, cluster, service, scheduler = build_ips_world()
    scheduler.submit(make_job("Sort", input_gb=2.0, num_reducers=8))
    sim.run(until=120.0)
    actions = ips_actions(sim)
    assert "throttle" in actions
    scheduler.stop()


def test_ips_protects_latency_vs_no_ips():
    def mean_latency(ips_on):
        sim, cluster, service, scheduler = build_ips_world(ips_on=ips_on)
        scheduler.submit(make_job("Sort", input_gb=2.0, num_reducers=8))
        scheduler.submit(make_job("Twitter", input_gb=2.0, num_reducers=8))
        sim.run(until=180.0)
        value = service.mean_latency_ms()
        scheduler.stop()
        return value

    assert mean_latency(True) < mean_latency(False)


def test_ips_releases_after_recovery():
    sim, cluster, service, scheduler = build_ips_world()
    scheduler.submit(make_job("Sort", input_gb=1.0, num_reducers=8))
    sim.run(until=400.0)
    actions = ips_actions(sim)
    if "throttle" in actions:
        assert "release" in actions
    scheduler.stop()


def build_ladder_world(trace=False):
    """RUBiS alone on pm00's first VM, a Sort on its two batch VMs and an
    empty pm02: throttling and pausing cannot save the SLA, so IPS
    climbs to the migrate rung (Algorithm 3's last resort)."""
    sim = Simulator(seed=3)
    if trace:
        sim.obs.enable_tracing()
    cluster = Cluster.virtual(sim, 2, 3)
    spare = cluster.add_pm()
    vms = {vm.name: vm for vm in cluster.vms}
    service = InteractiveService(
        sim, "rubis", RUBIS, [vms["vm00"]], ConstantLoad(1200)
    )
    scheduler = HybridMRScheduler(
        sim, cluster.fabric, [], [vms["vm01"], vms["vm02"]], cluster.pms,
        services=[service],
        config=HybridMRConfig(phase1_enabled=False),
        mr_kwargs=dict(map_slots=2, reduce_slots=1),
    )
    scheduler.start()
    _placement, job = scheduler.submit(
        make_job("Sort", input_gb=2.0, num_reducers=2)
    )
    return sim, cluster, spare, vms, scheduler, job


def test_ips_ladder_throttles_pauses_then_migrates():
    sim, cluster, spare, vms, scheduler, job = build_ladder_world()
    sim.run(until=600.0)
    ips = scheduler.ips
    assert [
        (d.time, d.action, d.target) for d in sim.obs.decisions if d.loop == "ips"
    ] == [
        (5.0, "throttle", "vm02"),
        (10.0, "throttle", "vm01"),
        (15.0, "pause", "vm02"),
        (20.0, "pause", "vm01"),
        (25.0, "migrate", "vm02"),
        (30.0, "migrate", "vm01"),
    ]
    assert [(r.vm_name, r.src, r.dst) for r in ips.migrations] == [
        ("vm02", "pm00", "pm02"),
        ("vm01", "pm00", "pm02"),
    ]
    finished_at = [
        round(start + r.migration_time_s, 1)
        for start, r in zip((25.0, 30.0), ips.migrations)
    ]
    assert finished_at == [84.0, 92.8]
    assert all(r.downtime_ms > 0 for r in ips.migrations)
    # the guests now live on pm02, in pm02's co-location group, and IPS
    # released every limit it had set on them
    for name in ("vm01", "vm02"):
        vm = vms[name]
        assert vm.pm is spare and vm in spare.vms
        assert not vm.paused and vm.io_limit_mbps is None
    assert cluster.pms[0].vms == [vms["vm00"]]
    assert cluster.fabric.colocated("vm01", "vm02")
    assert not cluster.fabric.colocated("vm01", "vm00")
    assert job.done
    scheduler.stop()


def test_drm_reads_its_vms_trackers_across_migration():
    """The DRM (and the IPS through it) reads a VM's attempts off that
    VM's own TaskTrackers.  The map it builds once still holds after both
    batch VMs live-migrate, and each LRM keeps only the window the IPS
    ranks over."""
    sim, cluster, spare, vms, scheduler, job = build_ladder_world()
    drm = scheduler.drm
    trackers = scheduler.virtual_mr.jt.trackers
    busy_after_migration = 0
    # both migrations finish by 92.8 s; the job by 252 s, when both
    # LRMs have filled their windows
    for step in range(1, 61):
        sim.run(until=5.0 * step)
        for name in ("vm01", "vm02"):
            vm = vms[name]
            expected = [a for t in trackers if t.context is vm for a in t.running]
            assert drm.attempts_on(vm) == expected
            if vm.pm is spare and expected:
                busy_after_migration += 1
    assert [r.vm_name for r in scheduler.ips.migrations] == ["vm02", "vm01"]
    assert busy_after_migration > 0
    assert job.done
    assert [len(lrm.samples) for lrm in drm.lrms.values()] == [SAMPLE_WINDOW] * 2
    scheduler.stop()


def test_decision_log_is_the_one_record():
    """Phase I, DRM and IPS decisions land in one log on ``sim.obs``;
    each loop's counters and trace instants are derived from it, and
    tracing leaves it unchanged."""
    logs = []
    for trace in (False, True):
        sim, cluster, spare, vms, scheduler, job = build_ladder_world(trace)
        sim.run(until=600.0)
        scheduler.stop()
        decisions = sim.obs.decisions
        logs.append(decisions)
        assert Counter(d.loop for d in decisions) == {
            "phase1": 1, "drm": 40, "ips": 6,
        }
        # every <loop>.actions.<action> counter is its count in the log
        counted = {
            name: value
            for name, value in sim.obs.metrics.counters().items()
            if ".actions." in name
        }
        assert counted == Counter(f"{d.loop}.actions.{d.action}" for d in decisions)
        rungs = ("throttle", "pause", "migrate")
        assert [counted[f"ips.actions.{rung}"] for rung in rungs] == [2, 2, 2]
        if trace:
            # one decision instant per decision, on its loop's track
            instants = [
                (i["name"], i["track"], i["ts"], i["args"])
                for i in sim.obs.tracer.instants
                if i["cat"] == "decision"
            ]
            assert instants == [
                (f"{d.loop}.{d.action}:{d.target}", d.loop, d.time, d.inputs)
                for d in decisions
            ]
    assert logs[0] == logs[1]


def test_migration_moves_inflight_entries_with_their_owners(monkeypatch):
    """Live migration moves the guest's in-flight pool entries to the
    destination's pools -- the same objects, labels included -- so the
    tasks that own them can still stop them.  Killing the owner of a
    DataNode read that was in flight during a migration takes the read
    out of pm02's disk pool instead of orphaning it there."""
    sim, cluster, spare, vms, scheduler, job = build_ladder_world()
    jt = scheduler.virtual_mr.jt
    checked = []
    relocate = VirtualMachine.relocate

    def relocate_and_watch(vm, new_pm):
        moving = [e for e in vm._disk_entries if not e.done]
        labels = [e.label for e in moving]
        relocate(vm, new_pm)

        def kill_owners() -> None:
            # the first event after the migration finished and resumed
            pool = new_pm.disk_pool
            assert [e.label for e in moving] == labels
            assert all(e.pool is pool and e in pool.entries for e in moving)
            assert all(e.work_remaining > 0 for e in moving)
            owners = [
                attempt
                for entry in moving
                for attempt in jt.running_attempts()
                if entry in attempt._handles
            ]
            assert len(owners) == len(moving)
            for attempt in owners:
                attempt.kill()
            assert all(e.done and e not in pool.entries for e in moving)
            checked.append((vm.name, labels))

        sim.schedule(0.0, kill_owners)

    monkeypatch.setattr(VirtualMachine, "relocate", relocate_and_watch)
    sim.run(until=600.0)
    assert checked == [
        ("vm02", ["dn-vm02:read:6", "dn-vm02:read:7"]),
        ("vm01", ["dn-vm01:read:8", "dn-vm01:read:9"]),
    ]
    # the killed attempts were retried and the job still finished
    assert job.done
    scheduler.stop()


# ----------------------------------------------------------------------
# HybridMRScheduler facade
# ----------------------------------------------------------------------
def test_facade_requires_some_context(sim, virtual_cluster):
    with pytest.raises(ValueError):
        HybridMRScheduler(sim, virtual_cluster.fabric, [], [], virtual_cluster.pms)


def test_facade_routes_without_native_side(sim, virtual_cluster):
    scheduler = HybridMRScheduler(
        sim, virtual_cluster.fabric, [], list(virtual_cluster.vms),
        virtual_cluster.pms, config=HybridMRConfig(),
    )
    scheduler.start()
    placement, job = scheduler.submit(make_job("Sort", input_gb=0.25, num_reducers=2))
    assert placement.value == "virtual"
    sim.run(until=200.0)
    assert job.done
    scheduler.stop()


def test_random_placements_are_logged_per_job():
    """Each side's JobTracker numbers its jobs from 1, so two jobs can
    share a ``job_id``; the log keeps one entry per submission."""
    sim = Simulator(seed=1)
    cluster = Cluster.hybrid(sim, 2, 2, 2)
    scheduler = HybridMRScheduler(
        sim, cluster.fabric, cluster.native_contexts(), list(cluster.vms),
        cluster.pms,
        config=HybridMRConfig(phase1_enabled=False, random_placement_seed=1),
    )
    for name in ("a", "b", "c"):
        scheduler.submit(make_job("Sort", input_gb=0.25, num_reducers=2, name=name))
    assert [
        (d.action, d.target, d.inputs["job_id"])
        for d in sim.obs.decisions
        if d.loop == "phase1"
    ] == [("physical", "a", 1), ("virtual", "b", 1), ("virtual", "c", 2)]
    scheduler.stop()


def test_facade_random_placement_uses_both_sides(sim, hybrid_cluster):
    scheduler = HybridMRScheduler(
        sim, hybrid_cluster.fabric, hybrid_cluster.native_contexts(),
        list(hybrid_cluster.vms), hybrid_cluster.pms,
        config=HybridMRConfig(phase1_enabled=False),
    )
    scheduler.start()
    placements = {
        scheduler.submit(make_job("Sort", input_gb=0.25, num_reducers=2, name=f"j{i}"))[0]
        for i in range(8)
    }
    assert len(placements) == 2
    scheduler.stop()
