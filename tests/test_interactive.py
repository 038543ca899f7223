"""Tests for interactive services, load profiles and SLA monitoring."""

import math
import random

import pytest

from repro.interactive.loadgen import BurstyLoad, ConstantLoad, SinusoidLoad, StepLoad
from repro.interactive.service import (
    MAX_LATENCY_MS,
    RUBIS,
    TPCW,
    InteractiveService,
    solve_closed_loop_latency,
)
from repro.interactive.sla import SLAMonitor


# ----------------------------------------------------------------------
# closed-loop solver
# ----------------------------------------------------------------------
def test_latency_near_service_time_at_low_load():
    r = solve_closed_loop_latency(10, think_s=7.0, demand_per_req=0.01, capacity=4.0)
    assert r == pytest.approx(0.01, rel=0.05)


def test_latency_grows_with_clients():
    rs = [
        solve_closed_loop_latency(n, 7.0, 0.01, 1.0)
        for n in (100, 500, 1000, 2000)
    ]
    assert rs == sorted(rs)
    assert rs[-1] > 10 * rs[0]


def test_latency_saturated_matches_asymptote():
    # N*D/C - Z for heavy overload
    n, d, c, z = 5000, 0.01, 1.0, 7.0
    r = solve_closed_loop_latency(n, z, d, c)
    assert r == pytest.approx(n * d / c - z, rel=0.05)


def test_latency_zero_cases():
    assert solve_closed_loop_latency(0, 7.0, 0.01, 1.0) == 0.0
    assert solve_closed_loop_latency(10, 7.0, 0.0, 1.0) == 0.0
    assert solve_closed_loop_latency(10, 7.0, 0.01, 0.0) == MAX_LATENCY_MS / 1000.0


def test_latency_monotone_in_capacity():
    rs = [solve_closed_loop_latency(1000, 7.0, 0.01, c) for c in (0.5, 1.0, 2.0, 4.0)]
    assert rs == sorted(rs, reverse=True)


# ----------------------------------------------------------------------
# load profiles
# ----------------------------------------------------------------------
def test_constant_load():
    load = ConstantLoad(100)
    assert load.clients(0) == load.clients(1e6) == 100
    assert load.peak() == 100


def test_step_load():
    load = StepLoad([(0.0, 10), (100.0, 50), (200.0, 20)])
    assert load.clients(50) == 10
    assert load.clients(150) == 50
    assert load.clients(250) == 20
    assert load.peak() == 50


def test_sinusoid_load_bounds():
    load = SinusoidLoad(10, 110, period_s=100.0)
    values = [load.clients(t) for t in range(0, 200, 5)]
    assert min(values) >= 10 and max(values) <= 110
    assert load.peak() == 110


def test_bursty_load_returns_to_base():
    load = BurstyLoad(base=10, burst_clients=90, rng=random.Random(1),
                      mean_gap_s=50.0, burst_len_s=10.0, horizon_s=1000.0)
    values = {load.clients(t) for t in range(0, 1000)}
    assert values == {10, 100}
    assert load.peak() == 100


# ----------------------------------------------------------------------
# InteractiveService
# ----------------------------------------------------------------------
def test_service_low_load_meets_sla(sim, virtual_cluster):
    svc = InteractiveService(sim, "s", RUBIS, virtual_cluster.vms[:2], ConstantLoad(100))
    svc.start()
    sim.run(until=60.0)
    assert svc.current_latency_ms < svc.sla_ms
    assert not svc.sla_violated
    assert svc.violation_fraction() == 0.0


def test_service_overload_breaches_sla(sim, virtual_cluster):
    svc = InteractiveService(sim, "s", RUBIS, virtual_cluster.vms[:1], ConstantLoad(5000))
    svc.start()
    sim.run(until=60.0)
    assert svc.sla_violated
    assert svc.violation_fraction() > 0.5


def test_service_holds_only_equilibrium_demand(sim, virtual_cluster):
    svc = InteractiveService(sim, "s", RUBIS, virtual_cluster.vms[:1], ConstantLoad(100))
    svc.start()
    sim.run(until=30.0)
    vm = virtual_cluster.vms[0]
    # ~100/7 req/s * 0.01 s/req = 0.14 cores of demand, far below 1 vCPU
    used = sum(e.rate for e in vm._cpu_entries)
    assert used < 0.4


def test_collocated_batch_io_inflates_latency(sim, virtual_cluster):
    pm = virtual_cluster.pms[0]
    svc_vm, other_vm = pm.vms
    svc = InteractiveService(sim, "s", RUBIS, [svc_vm], ConstantLoad(300))
    svc.start()
    sim.run(until=30.0)
    calm = svc.current_latency_ms
    other_vm.run_disk(math.inf, label="hog")
    sim.run(until=60.0)
    assert svc.current_latency_ms > calm * 2


def test_service_stop_releases_entries(sim, virtual_cluster):
    vm = virtual_cluster.vms[0]
    svc = InteractiveService(sim, "s", RUBIS, [vm], ConstantLoad(100))
    svc.start()
    sim.run(until=10.0)
    svc.stop()
    assert list(vm.pm.cpu_pool.entries) == []


def test_service_double_start_rejected(sim, virtual_cluster):
    svc = InteractiveService(sim, "s", RUBIS, virtual_cluster.vms[:1], ConstantLoad(10))
    svc.start()
    with pytest.raises(RuntimeError):
        svc.start()


def test_tpcw_heavier_than_rubis(sim, virtual_cluster):
    a = InteractiveService(sim, "r", RUBIS, [virtual_cluster.vms[0]], ConstantLoad(500))
    b = InteractiveService(sim, "t", TPCW, [virtual_cluster.vms[2]], ConstantLoad(500))
    a.start()
    b.start()
    sim.run(until=30.0)
    assert b.current_latency_ms > a.current_latency_ms


# ----------------------------------------------------------------------
# SLAMonitor
# ----------------------------------------------------------------------
def test_monitor_fires_on_violation(sim, virtual_cluster):
    svc = InteractiveService(sim, "s", RUBIS, virtual_cluster.vms[:1], ConstantLoad(5000))
    svc.start()
    monitor = SLAMonitor(sim, [svc], poll_s=5.0)
    seen = []
    monitor.on_violation(seen.append)
    monitor.start()
    sim.run(until=30.0)
    assert seen
    assert all(service is svc for service in seen)
    assert sim.obs.metrics.counter("sla.violations").value == len(seen)


def test_monitor_quiet_when_healthy(sim, virtual_cluster):
    svc = InteractiveService(sim, "s", RUBIS, virtual_cluster.vms[:2], ConstantLoad(50))
    svc.start()
    monitor = SLAMonitor(sim, [svc], poll_s=5.0)
    seen = []
    monitor.on_violation(seen.append)
    monitor.start()
    sim.run(until=60.0)
    assert seen == []
