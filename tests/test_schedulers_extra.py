"""Tests for the CapacityScheduler and Poisson workload arrivals."""

import random

import pytest

from repro.cluster.cluster import Cluster
from repro.mapreduce.cluster import MapReduceCluster
from repro.mapreduce.schedulers import CapacityScheduler, _job_queue
from repro.sim.engine import Simulator
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.specs import make_job


def test_capacity_scheduler_validation():
    with pytest.raises(ValueError):
        CapacityScheduler({})
    with pytest.raises(ValueError):
        CapacityScheduler({"a": 0.8, "b": 0.5})
    with pytest.raises(ValueError):
        CapacityScheduler({"a": -0.1})


def test_queue_routing_from_job_name():
    from repro.mapreduce.job import Job

    prod = Job(1, make_job("Sort", input_gb=1, name="prod:etl"), 0.0)
    adhoc = Job(2, make_job("Sort", input_gb=1, name="plain"), 0.0)
    assert _job_queue(prod) == "prod"
    assert _job_queue(adhoc) == "default"


def test_capacity_scheduler_protects_guaranteed_queue(sim):
    cluster = Cluster.native(sim, 4)
    scheduler = CapacityScheduler({"prod": 0.7, "adhoc": 0.3})
    mr = MapReduceCluster(
        sim, cluster.fabric, cluster.native_contexts(), scheduler=scheduler
    )
    adhoc = mr.submit(make_job("Sort", input_gb=2.0, num_reducers=2, name="adhoc:a"))
    sim.run(until=5.0)  # adhoc grabs everything first
    prod = mr.submit(make_job("Sort", input_gb=2.0, num_reducers=2, name="prod:b"))
    sim.run(until=20.0)

    def running(job):
        return sum(len(t.running_attempts) for t in job.map_tasks + job.reduce_tasks)

    # the guaranteed-majority queue got at least parity once it arrived
    assert running(prod) >= running(adhoc)
    mr.jt.shutdown()


def test_capacity_scheduler_elastic_when_alone(sim):
    cluster = Cluster.native(sim, 4)
    scheduler = CapacityScheduler({"prod": 0.5, "adhoc": 0.5})
    mr = MapReduceCluster(
        sim, cluster.fabric, cluster.native_contexts(), scheduler=scheduler
    )
    solo = mr.submit(make_job("Sort", input_gb=1.0, num_reducers=2, name="adhoc:solo"))
    sim.run(until=5.0)
    running = sum(len(t.running_attempts) for t in solo.map_tasks)
    assert running >= 7  # uses (nearly) all 8 map slots despite 0.5 capacity
    mr.jt.shutdown()


def test_capacity_default_share_validation():
    with pytest.raises(ValueError):
        CapacityScheduler({"a": 0.5}, default_share=-0.1)
    with pytest.raises(ValueError):
        CapacityScheduler({"a": 0.5}, default_share=1.5)
    assert CapacityScheduler({"a": 0.5}, default_share=0.2).default_share == 0.2


def _fake_job(job_id, name, submit=0.0, running=0):
    from repro.mapreduce.job import Job

    job = Job(job_id, make_job("Sort", input_gb=1, name=name), submit)
    # Fair and Capacity read the counter TaskAttempt transitions
    # maintain; fakes set it directly
    job.running_attempt_count = running
    return job


def test_capacity_unknown_queue_gets_token_share():
    # prod is over its 0.9 guarantee; the unknown queue holds nothing,
    # so its default_share deficit puts it first -- no starvation
    scheduler = CapacityScheduler({"prod": 0.9}, default_share=0.05)
    prod = _fake_job(1, "prod:etl", running=10)
    misc = _fake_job(2, "misc:probe", submit=1.0)
    assert scheduler.order([prod, misc])[0] is misc


def test_capacity_spillover_yields_to_reclaiming_queue():
    # adhoc borrowed the idle cluster; the moment prod has demand and is
    # below its guarantee, the deficit ordering pushes the borrower back
    scheduler = CapacityScheduler({"prod": 0.7, "adhoc": 0.3})
    adhoc = _fake_job(1, "adhoc:borrower", running=8)
    prod = _fake_job(2, "prod:reclaim", submit=5.0)
    assert scheduler.order([adhoc, prod])[0] is prod


def test_capacity_queue_tie_broken_by_name_not_insertion():
    scheduler = CapacityScheduler({"a": 0.4, "b": 0.4})
    job_b = _fake_job(1, "b:first-submitted")
    job_a = _fake_job(2, "a:second-submitted", submit=1.0)
    # equal deficits: queue name decides, independent of insertion order
    assert scheduler.order([job_b, job_a]) == [job_a, job_b]
    assert scheduler.order([job_a, job_b]) == [job_a, job_b]


def test_poisson_arrivals_shape():
    gen = WorkloadGenerator(random.Random(4))
    arrivals = gen.poisson_arrivals(50, mean_interarrival_s=30.0)
    assert len(arrivals) == 50
    times = [t for t, _ in arrivals]
    assert times == sorted(times)
    gaps = [b - a for a, b in zip(times, times[1:])]
    mean_gap = sum(gaps) / len(gaps)
    assert 10.0 < mean_gap < 90.0  # loose CLT bounds around 30
    with pytest.raises(ValueError):
        gen.poisson_arrivals(1, 0.0)


def test_poisson_arrival_replay_end_to_end():
    sim = Simulator(seed=3)
    cluster = Cluster.native(sim, 4)
    mr = MapReduceCluster(sim, cluster.fabric, cluster.native_contexts())
    gen = WorkloadGenerator(sim.fork_rng("wl"), input_scale=0.05)
    arrivals = gen.poisson_arrivals(4, mean_interarrival_s=20.0, num_reducers=2)
    done = []
    for t, spec in arrivals:
        sim.schedule(
            t, lambda spec=spec: mr.jt.submit(spec, on_complete=done.append)
        )
    sim.run(until=3000.0)
    assert len(done) == 4
    mr.jt.shutdown()
