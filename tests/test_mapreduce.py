"""Tests for the MapReduce runtime."""

import pytest

from repro.cluster.cluster import Cluster
from repro.mapreduce.cluster import MapReduceCluster
from repro.mapreduce.job import BenchmarkProfile, JobSpec, JobState
from repro.mapreduce.schedulers import FairScheduler, FIFOScheduler
from repro.mapreduce.task import TaskKind
from repro.sim.engine import Simulator
from repro.workloads.specs import SORT, make_job


@pytest.fixture
def mr(sim, native_cluster):
    return MapReduceCluster(sim, native_cluster.fabric, native_cluster.native_contexts())


# ----------------------------------------------------------------------
# specs and profiles
# ----------------------------------------------------------------------
def test_jobspec_validation():
    with pytest.raises(ValueError):
        JobSpec("x", SORT, input_gb=0)
    with pytest.raises(ValueError):
        JobSpec("x", SORT, input_gb=1, num_maps=0)


def test_profile_validation():
    with pytest.raises(ValueError):
        BenchmarkProfile("x", -1, 0, 0, 0)
    with pytest.raises(ValueError):
        BenchmarkProfile("x", 0, 0, 0, 0, resource_class="weird")


def test_make_job_defaults():
    spec = make_job("Sort")
    assert spec.input_gb == 20.0
    assert spec.profile is SORT
    spec = make_job("PiEst")
    assert spec.num_maps == 16
    with pytest.raises(KeyError):
        make_job("NoSuch")


# ----------------------------------------------------------------------
# basic execution
# ----------------------------------------------------------------------
def test_job_runs_to_completion(mr):
    job = mr.run_job(make_job("Sort", input_gb=0.5, num_reducers=4))
    assert job.state is JobState.SUCCEEDED
    assert job.jct > 0
    assert job.map_phase_time > 0
    assert job.reduce_phase_time > 0
    assert all(t.completed for t in job.map_tasks + job.reduce_tasks)


def test_map_count_follows_blocks(mr):
    job = mr.run_job(make_job("Sort", input_gb=0.5, num_reducers=2))
    assert len(job.map_tasks) == 8  # 512 MB / 64 MB


def test_num_maps_override(mr):
    job = mr.run_job(make_job("PiEst", num_maps=6, num_reducers=2))
    assert len(job.map_tasks) == 6


def test_reducers_default_to_tracker_count(mr):
    job = mr.run_job(make_job("Sort", input_gb=0.25))
    assert len(job.reduce_tasks) == 4


def test_output_written_to_hdfs(mr):
    job = mr.run_job(make_job("Sort", input_gb=0.25, num_reducers=2))
    out_files = [n for n in mr.fs.namenode.files if n.endswith(".out")]
    assert len(out_files) == 2
    total = sum(mr.fs.namenode.file_size_mb(f) for f in out_files)
    assert total == pytest.approx(job.output_mb, rel=0.01)


def test_larger_input_takes_longer(mr):
    a = mr.run_job(make_job("Sort", input_gb=0.25, num_reducers=4, name="a"))
    b = mr.run_job(make_job("Sort", input_gb=1.0, num_reducers=4, name="b"))
    assert b.jct > a.jct


def test_concurrent_jobs_complete(mr):
    jobs = mr.run_jobs(
        [
            make_job("Sort", input_gb=0.25, num_reducers=2, name="s"),
            make_job("Wcount", input_gb=0.25, num_reducers=2, name="w"),
        ]
    )
    assert all(j.done for j in jobs)


def test_kill_job_releases_everything(sim, mr):
    job = mr.submit(make_job("Sort", input_gb=1.0, num_reducers=4))
    sim.run(until=5.0)
    mr.jt.kill_job(job)
    assert job.state is JobState.KILLED
    assert all(not t.running for t in mr.trackers for t in [])  # no crash
    assert all(len(t.running) == 0 for t in mr.trackers)


def test_more_nodes_run_faster():
    def jct(n):
        local = Simulator(seed=5)
        cluster = Cluster.native(local, n)
        mr = MapReduceCluster(local, cluster.fabric, cluster.native_contexts())
        return mr.run_job(make_job("Sort", input_gb=1.0, num_reducers=2)).jct

    assert jct(8) < jct(2)


# ----------------------------------------------------------------------
# locality
# ----------------------------------------------------------------------
def test_maps_mostly_data_local(mr):
    job = mr.run_job(make_job("Sort", input_gb=1.0, num_reducers=4))
    local = 0
    for task in job.map_tasks:
        attempt = task.winning_attempt
        holders = mr.fs.namenode.replica_holders(task.block)
        if any(d.context is attempt.tracker.context for d in holders):
            local += 1
    assert local >= len(job.map_tasks) * 0.5


# ----------------------------------------------------------------------
# schedulers
# ----------------------------------------------------------------------
def test_fifo_order():
    jobs = [JobSpec(f"j{i}", SORT, 1.0) for i in range(3)]
    from repro.mapreduce.job import Job

    runtime = [Job(i, s, submit_time=float(i)) for i, s in enumerate(jobs)]
    assert [j.spec.name for j in FIFOScheduler().order(runtime)] == ["j0", "j1", "j2"]


def test_fair_scheduler_balances_slots(sim, native_cluster):
    mr = MapReduceCluster(
        sim, native_cluster.fabric, native_cluster.native_contexts(),
        scheduler=FairScheduler(),
    )
    a = mr.submit(make_job("Sort", input_gb=2.0, num_reducers=2, name="a"))
    b = mr.submit(make_job("Sort", input_gb=2.0, num_reducers=2, name="b"))
    sim.run(until=15.0)
    running_a = sum(len(t.running_attempts) for t in a.map_tasks)
    running_b = sum(len(t.running_attempts) for t in b.map_tasks)
    assert abs(running_a - running_b) <= 2
    mr.jt.shutdown()


def test_fifo_starves_second_job(sim, native_cluster):
    mr = MapReduceCluster(
        sim, native_cluster.fabric, native_cluster.native_contexts(),
        scheduler=FIFOScheduler(),
    )
    a = mr.submit(make_job("Sort", input_gb=2.0, num_reducers=2, name="a"))
    b = mr.submit(make_job("Sort", input_gb=2.0, num_reducers=2, name="b"))
    sim.run(until=15.0)
    running_a = sum(len(t.running_attempts) for t in a.map_tasks)
    running_b = sum(len(t.running_attempts) for t in b.map_tasks)
    assert running_a > running_b
    mr.jt.shutdown()


# ----------------------------------------------------------------------
# slots
# ----------------------------------------------------------------------
def test_slot_limits_respected(sim, native_cluster):
    mr = MapReduceCluster(
        sim, native_cluster.fabric, native_cluster.native_contexts(),
        map_slots=1, reduce_slots=1,
    )
    mr.submit(make_job("Sort", input_gb=2.0, num_reducers=4))
    sim.run(until=10.0)
    for tracker in mr.trackers:
        maps = sum(1 for a in tracker.running if a.task.kind is TaskKind.MAP)
        assert maps <= 1
    mr.jt.shutdown()


def test_auto_slots_follow_cores(sim, virtual_cluster):
    mr = MapReduceCluster(
        sim, virtual_cluster.fabric, list(virtual_cluster.vms),
        map_slots=None, reduce_slots=None,
    )
    assert all(t.map_slots == 1 for t in mr.trackers)  # 1 vCPU guests


# ----------------------------------------------------------------------
# speculation
# ----------------------------------------------------------------------
def test_speculation_duplicates_stragglers(sim, native_cluster):
    mr = MapReduceCluster(
        sim, native_cluster.fabric, native_cluster.native_contexts(),
        speculation=True, speculation_interval=5.0,
    )
    # crank straggler odds so the test is deterministic and visible
    mr.jt.straggler_prob = 0.5
    job = mr.run_job(make_job("Kmeans", input_gb=1.0, num_reducers=4))
    assert job.done
    assert mr.jt.speculative_launched > 0


def test_speculation_off_launches_single_attempts(sim, native_cluster):
    mr = MapReduceCluster(
        sim, native_cluster.fabric, native_cluster.native_contexts(),
        speculation=False,
    )
    job = mr.run_job(make_job("Sort", input_gb=1.0, num_reducers=4))
    assert mr.jt.speculative_launched == 0
    assert all(len(t.attempts) == 1 for t in job.map_tasks)


def test_losing_attempts_are_killed(sim, native_cluster):
    mr = MapReduceCluster(
        sim, native_cluster.fabric, native_cluster.native_contexts(),
        speculation=True,
    )
    mr.jt.straggler_prob = 0.5
    mr.jt.speculation_interval = 5.0
    job = mr.run_job(make_job("Kmeans", input_gb=1.0, num_reducers=4))
    for task in job.map_tasks + job.reduce_tasks:
        assert sum(1 for a in task.attempts if a.finished_at is not None and not a.killed) == 1


def test_attempt_killed_inside_alloc_mem_starts_no_stage(monkeypatch):
    """The refresh inside ``alloc_mem`` can complete a sibling attempt,
    which kills the starting one as the race's loser; the dead attempt
    must not begin its first stage."""
    sim = Simulator(seed=5)
    cluster = Cluster.native(sim, 3)
    mr = MapReduceCluster(sim, cluster.fabric, cluster.native_contexts())
    tracker = mr.trackers[0]
    ctx = tracker.context
    real_alloc = type(ctx).alloc_mem
    doomed = []

    def alloc_mem(self, mb):
        real_alloc(self, mb)
        if self is ctx and not doomed:
            doomed.append(list(tracker.running)[-1])  # the attempt starting
            doomed[0].kill(reason="lost_race")

    # contexts are slotted: patch the class, and act on this one only
    monkeypatch.setattr(type(ctx), "alloc_mem", alloc_mem)
    real_launch = mr.jt._launch
    checked = []

    def launch(task, on, speculative=False):
        free_before = on.free_map_slots()
        attempt = real_launch(task, on, speculative)
        if doomed and attempt is doomed[0] and not checked:
            pm = on.context.pm
            for pool in (pm.cpu_pool, pm.disk_pool, pm.memio_pool):
                assert not [e for e in pool.entries if e.label.startswith(f"{task.name}:")]
            assert attempt.killed and not attempt.running
            assert attempt._stages == () and attempt._handles == []
            assert on.free_map_slots() == free_before
            assert attempt not in on.running
            checked.append(attempt)
        return attempt

    mr.jt._launch = launch
    job = mr.run_job(make_job("Sort", input_gb=0.25, num_reducers=2))
    assert checked and job.state is JobState.SUCCEEDED
    task = checked[0].task
    assert task.completed and task.winning_attempt is not checked[0]


# ----------------------------------------------------------------------
# split architecture
# ----------------------------------------------------------------------
def test_split_architecture_separates_roles(sim, virtual_cluster):
    compute = virtual_cluster.vms[::2]
    storage = virtual_cluster.vms[1::2]
    mr = MapReduceCluster(
        sim, virtual_cluster.fabric, compute, storage_contexts=storage
    )
    assert mr.split_architecture
    datanode_ctxs = {d.context for d in mr.fs.namenode.datanodes.values()}
    assert datanode_ctxs == set(storage)
    job = mr.run_job(make_job("Wcount", input_gb=0.25, num_reducers=2))
    assert job.done


# ----------------------------------------------------------------------
# page-cache decision
# ----------------------------------------------------------------------
def test_small_job_is_cache_resident(mr):
    job = mr.submit(make_job("Sort", input_gb=0.25, num_reducers=2))
    assert mr.jt.io_cached(job)


def test_huge_job_is_disk_bound(mr):
    job = mr.submit(make_job("Sort", input_gb=50.0, num_reducers=2))
    assert not mr.jt.io_cached(job)


# ----------------------------------------------------------------------
# work skew
# ----------------------------------------------------------------------
def test_work_multiplier_is_deterministic(mr):
    a = mr.jt.work_multiplier_for("job-m1", 0)
    b = mr.jt.work_multiplier_for("job-m1", 0)
    c = mr.jt.work_multiplier_for("job-m2", 0)
    assert a == b
    assert a != c


def test_jct_property_requires_completion(mr):
    job = mr.submit(make_job("Sort", input_gb=0.25))
    with pytest.raises(RuntimeError):
        _ = job.jct


# ----------------------------------------------------------------------
# stage-weighted progress
# ----------------------------------------------------------------------
def test_attempt_progress_steps_through_its_stage_weights():
    sim = Simulator(seed=3)
    cluster = Cluster.native(sim, 3)
    mr = MapReduceCluster(sim, cluster.fabric, cluster.native_contexts())
    job = mr.submit(make_job("Sort", input_gb=0.25, num_reducers=2))
    seen = {}
    while not job.done:
        assert sim.step()
        for attempt in mr.jt.running_attempts():
            record = seen.setdefault(attempt, [])
            progress = attempt.progress()
            if not record or record[-1] != progress:
                record.append(progress)
    profile = job.spec.profile
    startup = mr.jt.task_startup_cpu_s
    shuffle_mb = job.map_output_mb / len(job.reduce_tasks)
    out_mb = job.output_mb / len(job.reduce_tasks)
    kinds = set()
    for attempt, record in seen.items():
        kinds.add(attempt.task.kind)
        if attempt.task.kind is TaskKind.MAP:
            block_mb = attempt.task.block.size_mb
            w = [
                startup,
                block_mb,
                (block_mb * profile.map_cpu_per_mb + profile.fixed_map_cpu)
                * attempt.work_factor,
                block_mb * profile.map_selectivity,
            ]
        else:
            w = [
                startup,
                shuffle_mb,
                2 * shuffle_mb,
                shuffle_mb * profile.reduce_cpu_per_mb * attempt.work_factor,
                out_mb,
            ]
        assert record == [sum(w[:i]) / sum(w) for i in range(len(w))]
    assert kinds == {TaskKind.MAP, TaskKind.REDUCE}
