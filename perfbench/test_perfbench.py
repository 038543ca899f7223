"""Tests of the benchmark's own code, on tiny variants of each workload.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from perfbench.layers import LAYERS, PER_LAYER_METRICS, LayerTracer
from perfbench.run import Runner
from perfbench.workloads import CELL_SEEDS, TINY, WORKLOADS, digest
from repro.sim.engine import Event, Simulator
from repro.sim.network import NetworkFabric

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEED = 3


@pytest.fixture(scope="module")
def runs():
    """name -> (untraced result, traced result, tracer), computed once."""
    out = {}
    for name, workload in TINY.items():
        plain = workload.prepare(SEED)()
        tracer = LayerTracer()
        with tracer.traced():
            traced = workload.prepare(SEED)()
        out[name] = (plain, traced, tracer)
    return out


@pytest.mark.parametrize("name", sorted(TINY))
def test_wrapping_keeps_digests(runs, name):
    plain, traced, _tracer = runs[name]
    assert TINY[name].check(plain) == []
    assert digest(traced) == digest(plain)


def test_tracer_restores_entry_points():
    before = (Simulator.schedule, Simulator.run, Event.cancel, NetworkFabric.start_flow)
    with LayerTracer().traced():
        assert Simulator.schedule is not before[0]
    after = (Simulator.schedule, Simulator.run, Event.cancel, NetworkFabric.start_flow)
    assert after == before


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(set(names)) == len(names)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER_METRICS)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_self_times_tile_the_traced_wall(runs, name):
    tracer = runs[name][2]
    metrics = tracer.metrics()
    named = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert named + metrics["unattributed_s"] == pytest.approx(tracer.wall_s, abs=1e-9)
    assert min(tracer.self_s.values()) > -1e-6
    assert set(metrics) | {"trace.wall_s", "trace.overhead_pct"} == {
        n for n, _unit in PER_LAYER_METRICS
    }


def test_periodic_callbacks_are_charged_to_their_modules(runs):
    tracer = runs["paper-hybrid"][2]
    # DRM and IPS epochs, the speculation sweep and pool completion ticks
    for layer in ("core.drm", "core.ips", "mapreduce.jobtracker", "sim.pool"):
        assert tracer.events[layer] > 0, layer
    # the engine dispatches everything but owns no callbacks of its own
    assert tracer.events.get("sim.engine", 0) == 0


def test_call_every_bills_the_callback_not_the_engine():
    fired = []

    def epoch() -> None:
        fired.append(sum(range(2000)))

    epoch.__module__ = "repro.core.drm"
    sim = Simulator(seed=1)
    tracer = LayerTracer()
    with tracer.traced():
        sim.call_every(1.0, epoch, until=5.0)
        sim.run()
    assert len(fired) == 5
    assert tracer.events["core.drm"] == 5
    assert tracer.self_s["core.drm"] > 0
    assert tracer.counts["sim.engine.events"] == 5
    assert tracer.counts["sim.engine.schedules"] == 1


def test_counts_repeat_exactly(runs):
    workload = TINY["shuffle-fabric"]
    again = LayerTracer()
    with again.traced():
        workload.prepare(SEED)()
    first = runs["shuffle-fabric"][2].metrics()
    second = again.metrics()
    counts = [n for n, unit in PER_LAYER_METRICS if unit == "count" and n in first]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_runner_fails_a_repetition_on_digest_mismatch():
    runner = Runner(TINY["shuffle-fabric"], SEED, recorded="0" * 64)
    rep = runner.timed()
    assert any("digest" in p for p in rep["problems"])
    assert runner.failed == 1


def test_runner_counts_a_raising_repetition_as_failed():
    workload = TINY["shuffle-fabric"]

    def broken(seed):
        raise RuntimeError("boom")

    runner = Runner(type(workload)(workload.name, (), broken, workload.check), SEED, None)
    runner.timed()
    runner.timed()
    assert runner.failed == 2
    assert "boom" in runner.reps[0]["problems"][0]


def test_every_cell_seed_has_a_recorded_digest():
    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    for name in WORKLOADS:
        assert sorted(recorded[name], key=int) == [str(s) for s in range(1, CELL_SEEDS + 1)]
