"""Tests for the extension features: iterative/in-memory engines,
online profiling, the Arbiter's BestFit and the CLI."""

import pytest

from repro.cluster.cluster import Cluster
from repro.core.ips import Arbiter
from repro.core.scheduler import HybridMRConfig, HybridMRScheduler
from repro.mapreduce.cluster import MapReduceCluster
from repro.mapreduce.iterative import IterativeJobRunner, in_memory_engine
from repro.sim.engine import Simulator
from repro.workloads.specs import make_job


def make_mr(seed=5, pms=4):
    sim = Simulator(seed=seed)
    cluster = Cluster.virtual(sim, pms, 2)
    mr = MapReduceCluster(sim, cluster.fabric, list(cluster.vms))
    return sim, cluster, mr


# ----------------------------------------------------------------------
# iterative / in-memory execution
# ----------------------------------------------------------------------
def test_iterative_runner_runs_all_passes():
    sim, cluster, mr = make_mr()
    spec = make_job("Kmeans", input_gb=0.5, num_reducers=4)
    result = IterativeJobRunner(mr, spec, iterations=3).run()
    mr.jt.shutdown()
    assert len(result.iterations) == 3
    assert result.total_s == pytest.approx(sum(r.jct_s for r in result.iterations))
    assert not result.iterations[0].input_cached
    assert result.iterations[1].input_cached


def test_cached_input_speeds_up_warm_passes():
    def steady(cache):
        sim, cluster, mr = make_mr()
        spec = make_job("DistGrep", input_gb=1.0, num_reducers=4)
        result = IterativeJobRunner(mr, spec, iterations=3, cache_input=cache).run()
        mr.jt.shutdown()
        return result.steady_state_s

    assert steady(True) < steady(False)


def test_in_memory_engine_beats_stock_hadoop():
    def total(spark):
        sim, cluster, mr = make_mr()
        if spark:
            in_memory_engine(mr)
        spec = make_job("Wcount", input_gb=1.0, num_reducers=4)
        result = IterativeJobRunner(mr, spec, iterations=3).run()
        mr.jt.shutdown()
        return result.total_s

    assert total(True) < total(False)


def test_iterative_runner_validates_iterations():
    sim, cluster, mr = make_mr()
    with pytest.raises(ValueError):
        IterativeJobRunner(mr, make_job("Sort", input_gb=0.5), iterations=0)


def test_force_cached_overrides_fit_rule():
    sim, cluster, mr = make_mr()
    in_memory_engine(mr)
    job = mr.submit(make_job("Sort", input_gb=50.0, num_reducers=2))
    assert mr.jt.io_cached(job)  # would be disk-bound without the engine


# ----------------------------------------------------------------------
# online profiling
# ----------------------------------------------------------------------
def test_online_profiling_populates_database():
    sim = Simulator(seed=8)
    cluster = Cluster.hybrid(sim, 2, 2, 2)
    scheduler = HybridMRScheduler(
        sim, cluster.fabric, cluster.native_contexts(), list(cluster.vms),
        cluster.pms, config=HybridMRConfig(phase1_enabled=False),
    )
    scheduler.start()
    assert len(scheduler.phase1.db) == 0
    scheduler.run_batch([
        make_job("Sort", input_gb=0.5, num_reducers=2, name="a"),
        make_job("Sort", input_gb=0.5, num_reducers=2, name="b"),
    ])
    assert len(scheduler.phase1.db) == 2
    # the recorded profiles are immediately usable for estimation
    side = next(d.action for d in sim.obs.decisions if d.target == "a")
    est = scheduler.phase1.db.estimate(
        "Sort", side == "virtual",
        len((scheduler.virtual_mr if side == "virtual" else scheduler.native_mr).trackers),
        0.5,
    )
    assert est.jct_s > 0
    scheduler.stop()


def test_online_profiling_can_be_disabled():
    sim = Simulator(seed=8)
    cluster = Cluster.hybrid(sim, 2, 2, 2)
    scheduler = HybridMRScheduler(
        sim, cluster.fabric, cluster.native_contexts(), list(cluster.vms),
        cluster.pms,
        config=HybridMRConfig(phase1_enabled=False, online_profiling=False),
    )
    scheduler.start()
    scheduler.run_batch([make_job("Sort", input_gb=0.5, num_reducers=2)])
    assert len(scheduler.phase1.db) == 0
    scheduler.stop()


# ----------------------------------------------------------------------
# Arbiter BestFit
# ----------------------------------------------------------------------
def test_best_fit_prefers_the_tighter_feasible_host(sim):
    cluster = Cluster.virtual(sim, 1, 1)
    vm = cluster.vms[0]
    near_full = cluster.add_pm("nearfull")
    Cluster.add_vm(cluster, near_full)  # 1 of 2 cores used
    empty = cluster.add_pm("empty")
    assert Arbiter.best_fit(vm, [near_full, empty], set()) is near_full


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_list(capsys):
    from repro.cli import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "Sort" in out and "fig01" in out


def test_cli_run(capsys):
    from repro.cli import main

    assert main(["run", "Wcount", "--pms", "4", "--input-gb", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "JCT" in out and "energy" in out


def test_cli_profile(capsys):
    from repro.cli import main

    assert main([
        "profile", "Sort", "--sizes", "0.5", "1.0",
        "--cluster-size", "2", "--estimate", "0.75",
    ]) == 0
    out = capsys.readouterr().out
    assert "estimate" in out
