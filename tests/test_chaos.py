"""Tests for repro.chaos: schedules, adapters, injector, reports."""

import json

import pytest

from repro.chaos import (
    ChaosInjector,
    FaultSchedule,
    FaultSpec,
    build_report,
    parse_faults,
    poisson_schedule,
)
from repro.cluster.cluster import Cluster
from repro.mapreduce.cluster import MapReduceCluster
from repro.sim.engine import Simulator
from repro.sim.network import NetworkFabric
from repro.workloads.specs import make_job


def build(n=6, seed=9, **jt_kwargs):
    sim = Simulator(seed=seed)
    cluster = Cluster.native(sim, n)
    mr = MapReduceCluster(
        sim, cluster.fabric, cluster.native_contexts(), **jt_kwargs
    )
    return sim, cluster, mr


# ----------------------------------------------------------------------
# fault schedules
# ----------------------------------------------------------------------
def test_poisson_schedule_is_deterministic():
    a = poisson_schedule(1, 600.0, {"node": 0.01, "nic": 0.005}, mttr=45.0)
    b = poisson_schedule(1, 600.0, {"node": 0.01, "nic": 0.005}, mttr=45.0)
    assert a.to_json() == b.to_json()
    c = poisson_schedule(2, 600.0, {"node": 0.01, "nic": 0.005}, mttr=45.0)
    assert a.to_json() != c.to_json()


def test_poisson_schedule_streams_are_independent_per_kind():
    base = poisson_schedule(1, 600.0, {"node": 0.01})
    both = poisson_schedule(1, 600.0, {"node": 0.01, "disk": 0.02})
    node_faults = [f for f in both if f.kind == "node_crash"]
    assert [f.at for f in node_faults] == [f.at for f in base]


def test_schedule_json_round_trip():
    sched = poisson_schedule(3, 300.0, {"node": 0.02, "partition": 0.01})
    again = FaultSchedule.from_json(sched.to_json())
    assert again == sched
    assert again.to_json() == sched.to_json()


def test_parse_faults_grammar():
    sched = parse_faults("poisson:node=0.01,nic=0.005", seed=1, horizon=600.0)
    kinds = {f.kind for f in sched}
    assert kinds <= {"node_crash", "nic_degrade"}
    assert len(sched) > 0
    assert len(parse_faults("none", seed=1, horizon=600.0)) == 0
    with pytest.raises(ValueError):
        parse_faults("gaussian:node=1", seed=1, horizon=600.0)
    with pytest.raises(ValueError):
        parse_faults("poisson:node", seed=1, horizon=600.0)
    with pytest.raises(ValueError):
        parse_faults("poisson:warp=0.1", seed=1, horizon=600.0)


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(kind="meteor", at=1.0)
    with pytest.raises(ValueError):
        FaultSpec(kind="node_crash", at=-1.0)
    with pytest.raises(ValueError):
        FaultSpec(kind="cpu_steal", at=1.0, severity=1.5)


# ----------------------------------------------------------------------
# network fault adapters
# ----------------------------------------------------------------------
def test_partition_stalls_and_heals_flows(sim):
    fabric = NetworkFabric(sim)
    for host in ("a", "b"):
        fabric.register_host(host, up_mbps=100.0, down_mbps=100.0)
    done = []
    fabric.start_flow("a", "b", 200.0, on_complete=lambda: done.append(sim.now))
    sim.schedule(1.0, lambda: fabric.partition({"a"}, {"b"}))
    sim.schedule(11.0, fabric.heal_partition)
    sim.run()
    # 1 s at 100 MB/s, a 10 s outage, then the remaining 100 MB
    assert done == [pytest.approx(12.0)]


def test_partition_validates_sides(sim):
    fabric = NetworkFabric(sim)
    for host in ("a", "b"):
        fabric.register_host(host, up_mbps=100.0, down_mbps=100.0)
    with pytest.raises(ValueError):
        fabric.partition({"a"}, {"a", "b"})
    with pytest.raises(KeyError):
        fabric.partition({"a"}, {"ghost"})
    fabric.partition({"a"}, {"b"})
    assert fabric.partitioned
    assert fabric.is_blocked("a", "b") and fabric.is_blocked("b", "a")
    with pytest.raises(RuntimeError):
        fabric.partition({"a"}, {"b"})
    fabric.heal_partition()
    assert not fabric.partitioned
    fabric.heal_partition()  # idempotent


def test_nic_degradation_slows_flows(sim):
    fabric = NetworkFabric(sim)
    for host in ("a", "b"):
        fabric.register_host(host, up_mbps=100.0, down_mbps=100.0)
    fabric.set_nic_scale("a", 0.5)
    done = []
    fabric.start_flow("a", "b", 100.0, on_complete=lambda: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(2.0)]  # half the NIC, twice the time
    with pytest.raises(ValueError):
        fabric.set_nic_scale("a", 0.0)
    with pytest.raises(KeyError):
        fabric.set_nic_scale("ghost", 0.5)


def test_context_degradation_slows_cpu_and_recovers(sim):
    cluster = Cluster.native(sim, 1)
    ctx = cluster.native_contexts()[0]
    done = []
    ctx.run_cpu(10.0, on_complete=lambda: done.append(sim.now), cap=1.0)
    ctx.set_degradation(cpu=0.5)
    assert ctx.degraded
    sim.run()
    # native efficiency 1.0 halved for the whole run
    assert done == [pytest.approx(20.0)]
    ctx.set_degradation()  # defaults restore full capacity
    assert not ctx.degraded
    with pytest.raises(ValueError):
        ctx.set_degradation(cpu=0.0)


# ----------------------------------------------------------------------
# injector semantics
# ----------------------------------------------------------------------
def test_injected_crash_recovers_and_job_completes():
    sim, cluster, mr = build()
    victim = cluster.native_contexts()[0]
    sched = FaultSchedule(
        faults=(
            FaultSpec(kind="node_crash", at=3.0, duration=8.0,
                      target=victim.name),
        ),
        horizon=100.0,
    )
    injector = ChaosInjector(sim, mr, sched)
    injector.start()
    job = mr.run_job(make_job("Sort", input_gb=1.0, num_reducers=4))
    assert job.done
    (record,) = injector.records
    assert record.injected and record.target == victim.name
    assert record.recovery_s == pytest.approx(8.0)
    tracker = next(t for t in mr.trackers if t.context is victim)
    assert tracker.alive  # rejoined
    assert mr.fs.datanode_on_context(victim) is not None
    counters = sim.obs.metrics.counters()
    assert counters["chaos.faults.injected"] == 1
    assert counters["chaos.faults.healed"] == 1
    assert counters["fault.node_failures"] == 1
    assert counters["fault.node_repairs"] == 1


def test_blast_radius_guard_skips_overlapping_crashes():
    sim, cluster, mr = build()
    contexts = cluster.native_contexts()
    sched = FaultSchedule(
        faults=(
            FaultSpec(kind="node_crash", at=2.0, duration=60.0,
                      target=contexts[0].name),
            FaultSpec(kind="node_crash", at=4.0, duration=60.0,
                      target=contexts[1].name),
        ),
        horizon=100.0,
    )
    injector = ChaosInjector(sim, mr, sched)  # replication 2 -> max 1 crash
    injector.start()
    job = mr.run_job(make_job("Wcount", input_gb=0.5, num_reducers=4))
    assert job.done
    first, second = injector.records
    assert first.injected
    assert not second.injected
    assert second.skip_reason in ("blast_radius", "under_replicated")


def test_degradation_faults_stack_and_heal():
    sim, cluster, mr = build(n=2)
    ctx = cluster.native_contexts()[0]
    sched = FaultSchedule(
        faults=(
            FaultSpec(kind="cpu_steal", at=1.0, duration=10.0,
                      target=ctx.name, severity=0.5),
            FaultSpec(kind="straggler", at=2.0, duration=4.0,
                      target=ctx.name, severity=0.5),
        ),
        horizon=50.0,
    )
    injector = ChaosInjector(sim, mr, sched)
    injector.start()
    factors = {}
    sim.schedule(3.0, lambda: factors.setdefault("both", ctx.degrade_cpu_factor))
    sim.schedule(8.0, lambda: factors.setdefault("one", ctx.degrade_cpu_factor))
    sim.schedule(12.0, lambda: factors.setdefault("none", ctx.degrade_cpu_factor))
    sim.run(until=20.0)
    mr.jt.shutdown()
    assert factors["both"] == pytest.approx(0.25)  # stacked multiplicatively
    assert factors["one"] == pytest.approx(0.5)
    assert factors["none"] == pytest.approx(1.0)
    assert all(r.injected for r in injector.records)
    assert [r.healed_at for r in injector.records] == [11.0, 6.0]


def test_partition_fault_heals_before_job_ends():
    sim, cluster, mr = build(n=4)
    sched = FaultSchedule(
        faults=(FaultSpec(kind="partition", at=3.0, duration=5.0),),
        horizon=50.0,
    )
    injector = ChaosInjector(sim, mr, sched)
    injector.start()
    job = mr.run_job(make_job("Sort", input_gb=0.5, num_reducers=4))
    assert job.done
    (record,) = injector.records
    assert record.injected
    assert not mr.fabric.partitioned
    # a permanent partition would deadlock the shuffle: skipped
    sim2, cluster2, mr2 = build(n=4)
    sched2 = FaultSchedule(
        faults=(FaultSpec(kind="partition", at=3.0, duration=0.0),),
        horizon=50.0,
    )
    injector2 = ChaosInjector(sim2, mr2, sched2)
    injector2.start()
    job2 = mr2.run_job(make_job("Sort", input_gb=0.5, num_reducers=4))
    assert job2.done
    assert injector2.records[0].skip_reason == "permanent_partition"


# ----------------------------------------------------------------------
# node repair
# ----------------------------------------------------------------------
def test_repair_node_rejoins_tracker_and_datanode():
    sim, cluster, mr = build()
    victim = cluster.native_contexts()[0]
    mr.fail_node(victim)
    assert mr.fs.datanode_on_context(victim) is None
    mr.repair_node(victim)
    tracker = next(t for t in mr.trackers if t.context is victim)
    assert tracker.alive
    rejoined = mr.fs.datanode_on_context(victim)
    assert rejoined is not None
    # the node comes back with empty disks under a fresh identity
    assert rejoined.name != f"dn-{victim.name}"
    assert not rejoined.blocks
    mr.repair_node(victim)  # idempotent
    job = mr.run_job(make_job("Wcount", input_gb=0.5, num_reducers=4))
    assert job.done
    assert any(
        t.winning_attempt.tracker.context is victim
        for t in job.map_tasks + job.reduce_tasks
    )


# ----------------------------------------------------------------------
# the resilience report
# ----------------------------------------------------------------------
def test_resilience_report_fields_and_availability():
    sim, cluster, mr = build(n=4)
    victim = cluster.native_contexts()[0]
    sched = FaultSchedule(
        faults=(
            FaultSpec(kind="node_crash", at=5.0, duration=15.0,
                      target=victim.name),
        ),
        horizon=100.0,
    )
    injector = ChaosInjector(sim, mr, sched)
    injector.start()
    job = mr.run_job(make_job("Sort", input_gb=1.0, num_reducers=4))
    makespan = job.finish_time
    report = build_report(
        sim, injector, elapsed_s=makespan,
        baseline_makespan=0.8 * makespan, makespan=makespan,
    )
    assert report.faults_injected == 1
    # 15 s of one node down out of 4 * makespan node-seconds
    expected = 1.0 - 15.0 / (4.0 * makespan)
    assert report.availability == pytest.approx(expected)
    assert report.goodput_vs_baseline == pytest.approx(0.8)
    data = json.loads(report.to_json())
    assert data["faults"][0]["recovery_s"] == pytest.approx(15.0)
    assert data["reexecuted_maps"] == report.reexecuted_maps


def test_same_seed_and_schedule_give_byte_identical_reports():
    """The headline determinism property: chaos runs replay exactly."""

    def one_run():
        sim, cluster, mr = build(seed=17)
        sched = parse_faults(
            "poisson:node=0.02,disk=0.02", seed=17, horizon=400.0, mttr=25.0
        )
        injector = ChaosInjector(sim, mr, sched)
        injector.start()
        jobs = mr.run_jobs(
            [
                make_job("Sort", input_gb=1.0, num_reducers=4, name="sort"),
                make_job("Wcount", input_gb=0.5, num_reducers=4, name="wc"),
            ]
        )
        makespan = max(j.finish_time for j in jobs)
        report = build_report(sim, injector, elapsed_s=makespan,
                              makespan=makespan)
        return makespan, report.to_json()

    makespan_a, report_a = one_run()
    makespan_b, report_b = one_run()
    assert makespan_a == makespan_b
    assert report_a == report_b
    assert json.loads(report_a)["faults_injected"] >= 1


# ----------------------------------------------------------------------
# the experiment cell and sweep wiring
# ----------------------------------------------------------------------
def test_chaos_cell_is_registered_for_sweeps():
    from repro.sweep.cells import load, resolve

    assert resolve("chaos") == "chaos"
    assert resolve("fig08-faults") == "chaos"
    from repro.experiments.fig08_faults import run

    assert load("chaos") is run


def test_fig08_faults_cell_runs_and_replays():
    from repro.experiments.fig08_faults import run

    kwargs = dict(
        scale="tiny", seed=1, faults="poisson:node=0.02",
        deployments=("native",), waves=1,
    )
    result = run(**kwargs)
    entry = result["native"]
    assert entry["faulted_makespan_s"] >= entry["baseline_makespan_s"]
    report = entry["report"]
    assert report["faults_injected"] >= 1
    assert 0.0 < report["availability"] <= 1.0
    assert report["goodput_vs_baseline"] == pytest.approx(
        entry["baseline_makespan_s"] / entry["faulted_makespan_s"]
    )
    # the cell is a pure function of (scale, seed, params): replays match
    again = run(**kwargs)
    assert json.dumps(result, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_fig08_faults_cell_without_faults_matches_baseline():
    from repro.experiments.fig08_faults import run

    result = run(scale="tiny", seed=1, faults="none",
                 deployments=("native",), waves=1)
    entry = result["native"]
    assert entry["faulted_makespan_s"] == entry["baseline_makespan_s"]
    assert "report" not in entry
    assert result["total_faults_injected"] == 0
