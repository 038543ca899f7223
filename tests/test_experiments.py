"""Smoke + shape tests for the experiment reproductions.

Each figure module runs at a reduced configuration here; the full runs
live in benchmarks/.  Assertions target the paper's qualitative
findings (who wins, which way curves bend), not absolute numbers.
"""

import pytest

from repro.experiments.common import SMALL, Scale, pct_increase, pct_reduction

TINY = Scale("tiny", pms=4, vms_per_pm=2, input_fraction=0.08)


def test_scale_helpers():
    assert SMALL.vms == 16
    assert SMALL.input_gb("Sort") == pytest.approx(3.0)
    assert pct_increase(120, 100) == pytest.approx(20.0)
    assert pct_reduction(100, 80) == pytest.approx(20.0)
    with pytest.raises(ValueError):
        pct_increase(1.0, 0.0)


def test_fig1a_io_jobs_suffer_more_than_cpu_jobs():
    from repro.experiments.fig01_virt_overheads import fig1a

    result = fig1a(TINY, densities=(2,), benchmarks=("Sort", "PiEst"))
    assert result["Sort"][2] > result["PiEst"][2]
    assert result["PiEst"][2] < 25.0  # CPU-bound stays cheap


def test_fig1c_virtual_hdfs_below_native():
    from repro.experiments.fig01_virt_overheads import fig1c

    result = fig1c(TINY, sizes_gb=(1.0, 8.0))
    for size, metrics in result.items():
        for key, value in metrics.items():
            assert value < 1.0, f"{key} at {size}GB should be below native"
    # the gap widens with data size for throughput
    assert result[8.0]["w_tput"] <= result[1.0]["w_tput"] + 0.05


def test_fig2c_dom0_near_native():
    from repro.experiments.fig02_deployment import fig2c

    result = fig2c(TINY, benchmarks=("Sort", "PiEst"))
    for value in result.values():
        assert value == pytest.approx(1.0, abs=0.08)


def test_dom0_run_builds_one_simulator():
    """A Dom-0 run builds its cluster once: a capture around it sees
    exactly the simulator that ran the job, with every event on it."""
    from repro.experiments.common import run_single_job
    from repro.obs.capture import SimCapture
    from repro.virt.vm import Dom0Context

    with SimCapture() as capture:
        job = run_single_job(
            "native", "Sort", input_gb=0.25, pms=2, seed=1, dom0=True
        )
    assert job.done
    assert len(capture.simulators) == 1
    assert capture.simulators[0].events_processed > 0
    contexts = {
        a.tracker.context
        for t in job.map_tasks + job.reduce_tasks
        for a in t.attempts
    }
    assert contexts and all(isinstance(c, Dom0Context) for c in contexts)


def test_fig2d_split_beats_combined_on_average():
    from repro.experiments.fig02_deployment import fig2d, fig2d_mean_gain_pct

    result = fig2d(SMALL, benchmarks=("Twitter", "Wcount", "DistGrep"))
    assert fig2d_mean_gain_pct(result) > 0


def test_fig2b_more_vms_help_cpu_bound_jobs():
    from repro.experiments.fig02_deployment import fig2b

    result = fig2b(SMALL, sizes_gb=(4.0,))
    assert result[4.0]["V2-2M-4R"] < result[4.0]["V1-1M-1R"]


def test_fig5_jct_shrinks_with_cluster_and_grows_with_data():
    from repro.experiments.fig05_profiling_curves import fig5d, linearity_r2

    result = fig5d(data_sizes_gb=(1.0, 2.0, 3.0), cluster_sizes=(2, 8))
    for cluster, series in result.items():
        sizes = sorted(series)
        assert series[sizes[0]] < series[sizes[-1]]
        assert linearity_r2(series) > 0.9  # near-linear in data size
    for gb in (1.0, 3.0):
        assert result[8][gb] < result[2][gb]


def test_fig05_cell_runs_a_one_node_cluster():
    """C1 is one VM, so one DataNode: HDFS keeps a single replica."""
    from repro.experiments.fig05_profiling_curves import run

    result = run(data_sizes_gb=(1.0, 2.0), cluster_sizes=(1, 2))
    assert sorted(result["fig5d"]) == [1, 2]
    for series in result["fig5d"].values():
        assert series[1.0] < series[2.0]


def test_fig6a_profiling_error_reasonable():
    from repro.experiments.fig06_models import fig6a

    result = fig6a(
        train_data_gb=(3.0, 4.0, 5.0),
        train_clusters=(4, 8),
        test_configs=((4, 3.5), (4, 4.5), (8, 3.5), (8, 4.5), (6, 4.0)),
    )
    assert result["mean_error"] < 0.30  # paper: 10.8% on real hardware


def test_fig6c_sort_suffers_io_interference_piest_does_not():
    from repro.experiments.fig06_models import fig6c

    result = fig6c(io_loads_mbps=(0, 30, 60))
    assert result["Sort"][60] > 1.3
    assert result["PiEst"][60] < 1.15
    # monotone growth for the I/O-bound job
    assert result["Sort"][0] <= result["Sort"][30] <= result["Sort"][60]


def test_fig6b_piest_suffers_cpu_interference():
    from repro.experiments.fig06_models import fig6b

    result = fig6b(cpu_loads_pct=(0, 500, 900))
    assert result["PiEst"][900] > 1.5
    assert result["PiEst"][900] > result["Sort"][900]


def test_fig8b_full_management_beats_baseline():
    from repro.experiments.fig08_hybridmr_benefits import fig8b

    result = fig8b(TINY, benchmarks=("Kmeans",), modes=("cpu+memory+io",),
                   input_multiplier=4.0)
    assert result["Kmeans"]["cpu+memory+io"] > 0


def test_fig8c_concurrent_jobs_gain_more():
    from repro.experiments.fig08_hybridmr_benefits import fig8c, summarize_reduction

    result = fig8c(TINY, benchmarks=("Sort", "Kmeans", "Wcount"),
                   modes=("cpu+memory+io",))
    avg, best = summarize_reduction(result, "cpu+memory+io")
    assert avg > 5.0


def test_fig8d_hybridmr_sits_between_isolated_and_fifo():
    from repro.experiments.fig08_hybridmr_benefits import fig8d

    result = fig8d(client_counts=(1600,), pms=4, horizon_s=120.0, batch_gb=1.0)
    isolated = result["isolated"][1600]
    fifo = result["fifo"][1600]
    hybrid = result["hybridmr"][1600]
    assert isolated < fifo
    assert isolated <= hybrid <= fifo


def test_fig9_cross_platform_ordering():
    from repro.experiments.fig09_cross_platform import fig9b_9c

    result = fig9b_9c(TINY, benchmarks=("Sort", "Kmeans"), seed=7)
    reports = {r.design: r for r in result["reports"]}
    # virtual is slowest; hybrid within the native/virtual envelope
    assert reports["virtual"].mean_jct_s > reports["native"].mean_jct_s
    assert reports["hybridmr"].mean_jct_s < reports["virtual"].mean_jct_s
    # hybrid powers fewer servers than native
    assert reports["hybridmr"].servers < reports["native"].servers
    # hybrid wins the paper's headline metric
    assert reports["hybridmr"].perf_per_energy > reports["virtual"].perf_per_energy


def test_fig10_migration_costs_scale_with_memory_and_load():
    from repro.experiments.fig10_migration import fig10bc, migration_summary

    records = fig10bc(n_vms=4)
    summary = migration_summary(records)
    assert summary["idle-1GB"]["mean_migration_s"] > summary["idle-0.5GB"]["mean_migration_s"]
    assert summary["wcount-1GB"]["mean_migration_s"] > summary["idle-1GB"]["mean_migration_s"]
    assert summary["wcount-1GB"]["mean_downtime_ms"] > summary["idle-1GB"]["mean_downtime_ms"]


def test_fig11_hybrid_configs_beat_pure_extremes():
    from repro.experiments.fig11_tradeoff import best_and_worst, fig11

    results = fig11(
        TINY,
        horizon_s=400.0,
        configs=((0, 4, 2), (2, 2, 2), (4, 0, 0)),
    )
    best, worst = best_and_worst(results)
    assert best.n_native_pms not in (0,) or best.n_vms > 0
    # a mixed configuration beats at least one pure extreme
    mixed = next(r for r in results if r.n_native_pms and r.n_vms)
    pure = [r for r in results if not (r.n_native_pms and r.n_vms)]
    assert any(mixed.perf_per_energy > p.perf_per_energy for p in pure)


def test_scale_smoke_cell_completes_with_bounded_wave():
    from repro.experiments.common import LARGE, resolve_scale
    from repro.experiments.scale_smoke import run

    # datacenter scales resolve like any other
    assert resolve_scale("large") is LARGE
    assert LARGE.vms == 10_000
    result = run(TINY, seed=1, num_maps=64, num_reducers=4)
    assert result["hosts"] == TINY.vms
    assert result["trackers"] == TINY.vms
    assert result["maps"] == 64
    assert result["makespan_s"] > 0
    assert result["events"] > 0


def test_scale_smoke_result_is_pure_function_of_seed():
    """No host timing leaks into the cell result: two same-seed runs
    return equal dicts, so sweeps and the cache see one result."""
    from repro.experiments.scale_smoke import run

    first = run(TINY, seed=3, num_maps=32, num_reducers=2)
    assert first == run(TINY, seed=3, num_maps=32, num_reducers=2)
    assert "build_wall_s" not in first


@pytest.mark.slow
def test_scale_smoke_ten_thousand_hosts():
    """The LARGE contract: a 10k-host cluster builds, schedules a full
    wave across every tracker, and completes under the event budget."""
    from repro.experiments.scale_smoke import run

    result = run("large", seed=1, num_maps=1024, num_reducers=16)
    assert result["hosts"] == 10_000
    assert result["makespan_s"] > 0
