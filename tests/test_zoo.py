"""Tests for the scheduler zoo: registry, policies, and the study runner."""

import json

import pytest

from repro.mapreduce.schedulers import SKIP_JOB, ClusterView, FIFOScheduler
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
from repro.zoo.policies import DelayScheduler
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
    # reduces have no input locality: always the default pick
    assert sched.pick_task(job, tasks, None, TaskKind.REDUCE, view) == "task"
    with pytest.raises(ValueError):
        DelayScheduler(skip_budget=-1)


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


#: (workload, policy) -> the study fixture's run digest.  Holds every
#: built-in policy to its picks across commits, not only within one
#: process; update only for a change meant to alter scheduling.
PINNED_DIGESTS = {
    ("mixed", "capacity"): "84cc8b6458617c92a9ef1cdb304d4ffda0ced7a4cd3c64660ff0adebb447f08d",
    ("mixed", "delay"): "569db8e48739b73edc37e48c1fc14a3e953e48e0bda4ff5e2837e889ddf6db46",
    ("mixed", "drf"): "646aebb516b1bc072498660153b5c82c18ed5da7eaed3e9d23b2ce23abb4979c",
    ("mixed", "fair"): "861809aceeff6d2bf126d7e09d9dce9f31e92fbf4da9159daa57e0b507f7d438",
    ("mixed", "fifo"): "d0f6c9f832493d7dfedfb5d8e54f023c4a2d9e84ca601e000be686b5c549e88b",
    ("mixed", "jobdriven-map"): "b333bcd809dd8f9e3a17c2514fdd727f9c8e2712a315ab41ff045d74081b7d27",
    ("mixed", "jobdriven-reduce"): "3c56d5de42bac99fd1308a7dffd32c87e160811db2ab3f34eb0f86bd435e785f",
    ("mixed", "srtf"): "29d45ea5290df178bfa4ac1f876ea17a6209005b6d2f7fea7ecf97415a4d030a",
    ("shuffle", "capacity"): "1fad5b9dcc1e40fc1806b0b9134c9313d146aac24ac7ca824bf90df3cb4b230c",
    ("shuffle", "delay"): "128bf85da840e97610c66e833b30f0590558977aa0cd28ad8de89fedcc5f9e9b",
    ("shuffle", "drf"): "0b3c9cc2d18e4c4588f4b0f9fd415acfb0b0d9e49b6cfc25a5ddec365fbc4cec",
    ("shuffle", "fair"): "0b3c9cc2d18e4c4588f4b0f9fd415acfb0b0d9e49b6cfc25a5ddec365fbc4cec",
    ("shuffle", "fifo"): "8718e751f1d34330a7ded6915222bb1f3fa614820d2d943dbb5ddc31030327f4",
    ("shuffle", "jobdriven-map"): "81edb1b883c678af92635a7192839a13b16d37ef6748e9b265c09fca7976398d",
    ("shuffle", "jobdriven-reduce"): "0b3c9cc2d18e4c4588f4b0f9fd415acfb0b0d9e49b6cfc25a5ddec365fbc4cec",
    ("shuffle", "srtf"): "70ff095cabccb3a344bdf72796ad0d7ee985b39152b48b9555712c1f4fb87eff",
}


def test_study_digests_are_pinned(study):
    digests = {(r["workload"], r["policy"]): r["digest"] for r in study["runs"]}
    assert digests == PINNED_DIGESTS


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


def test_unknown_workload_and_policy_rejected(monkeypatch):
    with pytest.raises(KeyError):
        run_cell("tiny", 1, "fifo", "nonesuch")
    # a study rejects an unknown workload before it races a known one
    monkeypatch.setattr("repro.zoo.study.run_cell",
                        lambda *args: pytest.fail("raced a cell"))
    with pytest.raises(KeyError):
        run_study(scale="tiny", seeds=(1,), workloads=("mixed", "nonesuch"))
    monkeypatch.undo()
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
