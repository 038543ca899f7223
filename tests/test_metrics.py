"""Tests for the metrics layer."""

import math

import pytest

from repro.metrics.collector import UtilizationCollector
from repro.metrics.energy import EnergyReport, perf_per_energy
from repro.metrics.report import format_series, format_table


def test_collector_samples_all_metrics(sim, native_cluster):
    collector = UtilizationCollector(sim, native_cluster, interval_s=1.0)
    collector.start()
    native_cluster.pms[0].native.run_cpu(math.inf, cap=2.0)
    sim.run(until=10.0)
    collector.stop()
    for key in ("cpu", "mem", "io"):
        assert key in collector.traces
        assert len(collector.traces[key]) >= 10
    assert collector.mean("cpu") > 0.0


def test_collector_stop_records_final_sample(sim, native_cluster):
    collector = UtilizationCollector(sim, native_cluster, interval_s=10.0)
    collector.start()
    sim.schedule(25.0, collector.stop)
    sim.run()
    # cadence samples at 0/10/20 plus the closing sample at stop time
    assert collector.traces["cpu"].times == [0.0, 10.0, 20.0, 25.0]


def test_collector_stop_on_cadence_tick_does_not_duplicate(sim, native_cluster):
    collector = UtilizationCollector(sim, native_cluster, interval_s=10.0)
    collector.start()
    sim.schedule(20.0, collector.stop)
    sim.run()
    assert collector.traces["cpu"].times == [0.0, 10.0, 20.0]


def test_collector_restarts_after_stop(sim, native_cluster):
    collector = UtilizationCollector(sim, native_cluster, interval_s=10.0)
    collector.start()
    sim.schedule(15.0, collector.stop)
    sim.schedule(15.0, collector.start)
    sim.schedule(40.0, collector.stop)
    sim.run()
    times = collector.traces["cpu"].times
    assert times == [0.0, 10.0, 15.0, 25.0, 35.0, 40.0]
    assert len(times) == len(set(times))


def test_perf_per_energy_ordering():
    fast_cheap = perf_per_energy(100.0, 1000.0)
    slow_cheap = perf_per_energy(200.0, 1000.0)
    fast_dear = perf_per_energy(100.0, 2000.0)
    assert fast_cheap > slow_cheap
    assert fast_cheap > fast_dear
    assert perf_per_energy(0.0, 100.0) == 0.0


def test_energy_report_normalization():
    reports = [
        EnergyReport("a", mean_jct_s=100, energy_joules=1000, servers=8, utilization=0.5),
        EnergyReport("b", mean_jct_s=200, energy_joules=500, servers=4, utilization=1.0),
    ]
    rows = EnergyReport.normalize(reports)
    assert rows[0]["servers"] == 1.0
    assert rows[1]["servers"] == 0.5
    assert max(r["perf_per_energy"] for r in rows) == pytest.approx(1.0)
    assert EnergyReport.normalize([]) == []


def test_energy_report_kwh():
    report = EnergyReport("x", 1, 3.6e6, 1, 0.5)
    assert report.energy_kwh == pytest.approx(1.0)


def test_format_table_alignment():
    text = format_table(["name", "value"], [["sort", 1.23456], ["x", 2]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1]
    assert "1.235" in text
    with pytest.raises(ValueError):
        format_table(["a"], [["x", "y"]])


def test_format_series():
    text = format_series("gains", {"wmix-1": 0.25, "n": 3})
    assert text.startswith("gains:")
    assert "wmix-1=0.250" in text
    assert "n=3" in text
