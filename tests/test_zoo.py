"""Tests for the scheduler zoo: registry, policies, and the study runner."""

import json

import pytest

from repro.mapreduce.schedulers import SKIP_JOB, FIFOScheduler
from repro.mapreduce.task import TaskKind
from repro.obs.critpath import CATEGORIES
from repro.workloads.specs import make_job
from repro.zoo import (
    create_policy,
    parse_policy_spec,
    policy_names,
    register_policy,
    run_study,
    study_canonical_json,
    workload_names,
)
from repro.zoo.policies import DelayScheduler, DRFScheduler, SRTFScheduler
from repro.zoo.policy import ClusterView
from repro.zoo.study import run_cell


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_zoo_roster():
    names = policy_names()
    assert len(names) >= 8
    for expected in ("fifo", "fair", "capacity", "delay", "drf", "srtf",
                     "jobdriven-map", "jobdriven-reduce"):
        assert expected in names


def test_parse_policy_spec():
    assert parse_policy_spec("drf") == ("drf", {})
    assert parse_policy_spec("delay:skip_budget=8") == (
        "delay", {"skip_budget": 8}
    )
    name, kwargs = parse_policy_spec("capacity:prod=0.6,batch=0.3")
    assert name == "capacity"
    assert kwargs == {"prod": 0.6, "batch": 0.3}
    with pytest.raises(ValueError):
        parse_policy_spec("")
    with pytest.raises(ValueError):
        parse_policy_spec("delay:skip_budget")


def test_create_policy_from_spec():
    policy = create_policy("delay:skip_budget=8")
    assert isinstance(policy, DelayScheduler)
    assert policy.skip_budget == 8
    assert policy.describe() == "delay:skip_budget=8"
    assert create_policy("drf").describe() == "drf"
    with pytest.raises(KeyError):
        create_policy("nonesuch")
    # pass-through for already-built schedulers
    fifo = FIFOScheduler()
    assert create_policy(fifo) is fifo


def test_register_policy_rejects_bad_names_and_allows_override():
    with pytest.raises(ValueError):
        register_policy("bad name", FIFOScheduler)
    register_policy("test-dummy", FIFOScheduler)
    assert "test-dummy" in policy_names()
    assert isinstance(create_policy("test-dummy"), FIFOScheduler)


# ----------------------------------------------------------------------
# policy mechanics (no simulator needed)
# ----------------------------------------------------------------------
class _NoLocalJobTracker:
    def local_task(self, tracker, tasks):
        return None


class _NoLocalView:
    kind = TaskKind.MAP
    jt = _NoLocalJobTracker()


def test_delay_scheduler_skip_budget_then_remote():
    from repro.mapreduce.job import Job

    sched = DelayScheduler(skip_budget=2)
    job = Job(1, make_job("Sort", input_gb=1), 0.0)
    view = _NoLocalView()
    tasks = ["task"]
    assert sched.pick_task(job, tasks, None, TaskKind.MAP, view) is SKIP_JOB
    assert sched.pick_task(job, tasks, None, TaskKind.MAP, view) is SKIP_JOB
    # budget exhausted: launches remotely and resets
    assert sched.pick_task(job, tasks, None, TaskKind.MAP, view) == "task"
    assert sched.pick_task(job, tasks, None, TaskKind.MAP, view) is SKIP_JOB
    # reduces have no input locality: always defer to the default
    assert sched.pick_task(job, tasks, None, TaskKind.REDUCE, view) is None
    with pytest.raises(ValueError):
        DelayScheduler(skip_budget=-1)


def test_policies_order_without_view_falls_back():
    from repro.mapreduce.job import Job

    small = Job(1, make_job("Sort", input_gb=1), 0.0)
    large = Job(2, make_job("Sort", input_gb=4), 1.0)
    assert SRTFScheduler().order([large, small]) == [small, large]
    assert DRFScheduler().order([large, small]) == [small, large]


def test_cluster_view_demand_and_shares(sim):
    from repro.cluster.cluster import Cluster
    from repro.mapreduce.cluster import MapReduceCluster

    cluster = Cluster.native(sim, 2)
    mr = MapReduceCluster(sim, cluster.fabric, cluster.native_contexts())
    cpu_job = mr.submit(make_job("Kmeans", input_gb=0.5, num_reducers=1))
    io_job = mr.submit(make_job("Sort", input_gb=0.5, num_reducers=1))
    sim.run(until=2.0)
    view = ClusterView(mr.jt, TaskKind.MAP)
    demand = view.demand(cpu_job)
    assert demand["map"]["slots"] == 1.0
    assert demand["map"]["cpu"] > view.demand(io_job)["map"]["cpu"]
    capacity = view.capacity()
    assert capacity["slots"] > 0 and capacity["cpu"] > 0 and capacity["mem"] > 0
    for job in (cpu_job, io_job):
        assert 0.0 <= view.dominant_share(job) <= 1.0
        assert view.remaining_work_mb(job) >= 0.0
    mr.jt.shutdown()


# ----------------------------------------------------------------------
# head-to-head study (module-scoped: one full grid, many assertions)
# ----------------------------------------------------------------------
BUILTIN_POLICIES = (
    "capacity", "delay", "drf", "fair", "fifo",
    "jobdriven-map", "jobdriven-reduce", "srtf",
)


@pytest.fixture(scope="module")
def study():
    return run_study(
        scale="tiny",
        seeds=(1,),
        policies=BUILTIN_POLICIES,
        workloads=("mixed", "shuffle"),
    )


def test_study_shape(study):
    assert study["schema"] == "repro.zoo/1"
    assert study["baseline"] == "fifo"
    assert set(study["workloads"]) == {"mixed", "shuffle"}
    assert len(study["policies"]) >= 6
    assert len(study["runs"]) == len(study["policies"]) * 2


def test_study_blame_tiles_sum_to_makespan(study):
    for run in study["runs"]:
        tiles = run["blame"]["blame_s"]
        assert set(tiles) == set(CATEGORIES)
        total = sum(tiles.values())
        assert total > 0.0
        assert abs(total - run["blame"]["makespan_s"]) < 1e-6


def test_study_rankings(study):
    for workload in study["workloads"]:
        table = study["rankings"][workload]
        assert len(table) >= 6
        assert [e["rank"] for e in table] == list(range(1, len(table) + 1))
        spans = [e["mean_makespan_s"] for e in table]
        assert spans == sorted(spans)
        base = next(e for e in table if e["policy"] == "fifo")
        assert base["delta_vs_baseline_pct"] == 0.0
        assert base["explanation"] == "baseline"
        for entry in table:
            agg_tiles = entry["blame"]["blame_s"]
            assert abs(
                sum(agg_tiles.values()) - entry["blame"]["makespan_s"]
            ) < 1e-6
            if entry["policy"] != "fifo":
                assert "vs fifo" in entry["explanation"]


def test_study_canonical_json_round_trips(study):
    blob = study_canonical_json(study)
    assert json.loads(blob) == study
    assert study_canonical_json(json.loads(blob)) == blob


@pytest.mark.parametrize("policy", BUILTIN_POLICIES)
def test_every_policy_is_deterministic(study, policy):
    """Same scale+workload+policy+seed => byte-identical run record."""
    fresh = run_cell("tiny", 1, policy, "shuffle")
    baseline = next(
        r
        for r in study["runs"]
        if r["workload"] == "shuffle" and r["policy"] == policy
    )
    assert fresh["digest"] == baseline["digest"]
    assert json.dumps(fresh, sort_keys=True) == json.dumps(
        baseline, sort_keys=True
    )


def test_unknown_workload_and_policy_rejected():
    with pytest.raises(KeyError):
        run_cell("tiny", 1, "fifo", "nonesuch")
    with pytest.raises(KeyError):
        run_study(scale="tiny", seeds=(1,), policies=("nonesuch",))
    with pytest.raises(ValueError):
        run_study(scale="tiny", seeds=())
    assert workload_names() == ["mixed", "shuffle"]


# ----------------------------------------------------------------------
# live telemetry surfaces the active policy
# ----------------------------------------------------------------------
def test_live_frames_carry_policy_name(sim):
    from repro.cluster.cluster import Cluster
    from repro.mapreduce.cluster import MapReduceCluster
    from repro.obs.live import LiveSampler

    cluster = Cluster.native(sim, 2)
    mr = MapReduceCluster(
        sim, cluster.fabric, cluster.native_contexts(),
        scheduler=create_policy("delay"),
    )
    sampler = LiveSampler(sim, interval_s=5.0, cluster=cluster, mr=mr)
    sampler.start()
    frame = sampler.latest
    assert frame["queues"]["policy"] == "delay"
    sampler.stop()
