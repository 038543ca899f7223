"""repro.obs.prof: frame math, digest invariance, flamegraphs, and the
profiler pass of ``repro bench``."""

import json
import tracemalloc

import pytest

from repro.cluster.cluster import Cluster
from repro.hdfs.filesystem import HDFS
from repro.obs.bench import compare_reports, result_digest, run_bench
from repro.obs.capture import SimCapture
from repro.obs.prof import Profiler, collapsed_stacks
from repro.sim.engine import Simulator, _callback_names
from repro.sim.network import NetworkFabric
from repro.sim.pool import ResourcePool


class FakeClock:
    """Deterministic perf_counter stand-in: advance() by hand."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# ----------------------------------------------------------------------
# the frame stack: self/cumulative arithmetic
# ----------------------------------------------------------------------
def test_self_and_cumulative_split_with_nested_frames():
    clock = FakeClock()
    prof = Profiler(clock=clock)
    prof.begin_event("repro.sim.network", "NetworkFabric._tick")
    clock.advance(1.0)  # callback's own work before the fill
    prof.push("net.maxmin_fill", subsystem="repro.sim.network")
    clock.advance(3.0)  # inside the fill
    prof.pop()
    clock.advance(2.0)  # callback's own work after the fill
    prof.end_event()

    subs = prof.subsystem_table()
    net = subs["repro.sim.network"]
    assert net["cum_s"] == pytest.approx(6.0)
    assert net["self_s"] == pytest.approx(6.0)  # 3.0 frame + 3.0 root
    assert prof.dispatch_wall_s == pytest.approx(6.0)
    frames = prof.snapshot()["frames"]
    assert frames["net.maxmin_fill"]["self_s"] == pytest.approx(3.0)
    # flamegraph stacks: root-only self 3.0, nested 3.0
    stacks = {tuple(e["stack"]): e["self_s"] for e in prof.stack_table()}
    root = "repro.sim.network:NetworkFabric._tick"
    assert stacks[(root,)] == pytest.approx(3.0)
    assert stacks[(root, "net.maxmin_fill")] == pytest.approx(3.0)


def test_nested_frame_charges_its_own_subsystem():
    clock = FakeClock()
    prof = Profiler(clock=clock)
    prof.begin_event("repro.mapreduce.task", "TaskAttempt._fetch")
    clock.advance(1.0)
    # the fabric's fill runs on behalf of a task callback: its self
    # time must land on the network subsystem, not the task's
    prof.push("net.maxmin_fill", subsystem="repro.sim.network")
    clock.advance(4.0)
    prof.pop()
    prof.end_event()
    subs = prof.subsystem_table()
    assert subs["repro.sim.network"]["self_s"] == pytest.approx(4.0)
    assert subs["repro.mapreduce.task"]["self_s"] == pytest.approx(1.0)
    assert subs["repro.mapreduce.task"]["cum_s"] == pytest.approx(5.0)


def test_frames_outside_dispatch_count_as_outside_wall():
    clock = FakeClock()
    prof = Profiler(clock=clock)
    with prof.frame("net.maxmin_fill", subsystem="repro.sim.network"):
        clock.advance(2.0)
    assert prof.dispatch_wall_s == 0.0
    assert prof.outside_wall_s == pytest.approx(2.0)
    assert prof.attributed_wall_s == pytest.approx(2.0)


def test_gauges_track_n_min_max_last():
    prof = Profiler()
    for value in (5.0, 1.0, 3.0):
        prof.gauge("engine.queue_depth", value)
    g = prof.snapshot()["gauges"]["engine.queue_depth"]
    assert g == {"n": 3, "mean": 3.0, "min": 1.0, "max": 5.0, "last": 3.0}


def test_profiler_rejects_bad_config():
    with pytest.raises(ValueError):
        Profiler(gauge_sample_every=0)


def test_callback_names_resolves_partials_and_lambdas():
    import functools

    def plain():
        pass

    module, qual = _callback_names(plain)
    assert module == __name__ and "plain" in qual
    module, qual = _callback_names(functools.partial(plain))
    assert "plain" in qual  # qualname recovered through .func

    class Odd:
        __module__ = None  # type: ignore[assignment]

        def __call__(self):
            pass

    module, qual = _callback_names(Odd())
    assert module == "unknown" and qual == "Odd"


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------
def test_engine_profiles_events_and_samples_gauges():
    prof = Profiler(gauge_sample_every=1)
    sim = Simulator(seed=3)
    sim.enable_profiling(prof)
    for delay in (1.0, 2.0, 3.0):
        sim.schedule(delay, lambda: None)
    sim.run()
    assert prof.events == 3
    assert prof.dispatch_wall_s >= 0.0
    gauges = prof.snapshot()["gauges"]
    assert gauges["engine.queue_depth"]["n"] == 3
    assert gauges["engine.live_events"]["last"] == 0.0
    sim.disable_profiling()
    assert sim.prof is None
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert prof.events == 3  # detached: no further attribution


def test_completion_callbacks_are_billed_to_their_module():
    """Pools and the fabric call completion callbacks directly, inside
    their own completion events.  Each call runs in a frame billed to the
    callback's module, so the work of a flow's and a pool entry's
    callback lands in this module's subsystem, not in the fabric's or the
    pool's."""
    clock = FakeClock()
    prof = Profiler(clock=clock)
    sim = Simulator(seed=1)
    sim.enable_profiling(prof)
    fabric = NetworkFabric(sim)
    fabric.register_host("a")
    fabric.register_host("b")
    pool = ResourcePool(sim, 10.0)

    def flow_done():
        clock.advance(2.0)

    def entry_done():
        clock.advance(3.0)

    fabric.start_flow("a", "b", 119.0, on_complete=flow_done)
    pool.add(20.0, on_complete=entry_done)
    sim.run()
    subsystems = prof.subsystem_table()
    assert subsystems[__name__]["self_s"] == pytest.approx(5.0)
    assert subsystems["repro.sim.network"]["self_s"] == pytest.approx(0.0)
    assert subsystems["repro.sim.pool"]["self_s"] == pytest.approx(0.0)
    frames = prof.snapshot()["frames"]
    for callback, self_s in ((flow_done, 2.0), (entry_done, 3.0)):
        frame = frames[":".join(_callback_names(callback))]
        assert (frame["count"], frame["self_s"]) == (1, pytest.approx(self_s))


def test_block_write_continuation_is_billed_to_the_writer():
    """An HDFS write ends inside a DataNode closure that the pipeline's
    chain of legs calls.  The writer's callback still runs in one frame
    of its own, named after it, so its work is billed to its module."""
    prof = Profiler()
    sim = Simulator(seed=1)
    sim.enable_profiling(prof)
    cluster = Cluster.native(sim, 3)
    fs = HDFS(sim, cluster.fabric)
    for ctx in cluster.native_contexts():
        fs.add_datanode(ctx)
    written = []

    def on_written():
        written.append(sim.now)

    blocks = fs.create_file("out", 100.0, cluster.native_contexts()[0], on_written)
    sim.run()
    assert len(blocks) == 2 and len(written) == 1
    frames = prof.snapshot()["frames"]
    assert frames[":".join(_callback_names(on_written))]["count"] == 1


def test_compaction_is_attributed_when_profiled():
    """Cancelled entries show up in the engine gauges until the run
    loop pops them.  The queue has no compaction, so the profile has no
    ``engine.compact`` frame, no ``engine`` block and no ghost-key or
    eviction gauges."""
    prof = Profiler(gauge_sample_every=1)
    sim = Simulator(seed=5)
    sim.enable_profiling(prof)
    events = [sim.schedule(10.0 + i, lambda: None) for i in range(200)]
    for event in events[1::2]:
        event.cancel()
    sim.run()
    snapshot = prof.snapshot()
    gauges = snapshot["gauges"]
    assert snapshot["events"] == 100
    # first sample, after the t=10 event: 99 live entries with the 100
    # cancelled ones interleaved, none popped yet
    assert gauges["engine.queue_depth"]["max"] == 199
    assert gauges["engine.live_events"]["max"] == 99
    assert gauges["engine.tombstones"]["max"] == 100
    # each later pop reclaims the dead entry just before the live one;
    # the last sample still sees the dead t=209 entry...
    assert gauges["engine.tombstones"]["last"] == 1
    # ...which the loop pops on its way out
    assert sim.queue_stats()["depth"] == 0
    assert "engine.compact" not in snapshot["frames"]
    assert "engine" not in snapshot
    assert not {"engine.ghost_keys", "engine.compact_evicted"} & set(gauges)


# ----------------------------------------------------------------------
# the house invariant: profiling never perturbs same-seed results
# (satellite: parametrized across cells x observability stackups)
# ----------------------------------------------------------------------
def _run_cell_with(figure, seed, mode):
    from repro.experiments.common import resolve_scale
    from repro.sweep.cells import load

    fn = load(figure)
    scale = resolve_scale("tiny")
    if mode == "none":
        with SimCapture():
            return result_digest(fn(scale, seed))
    profiler = Profiler(
        gauge_sample_every=64, trace_memory=(mode == "everything")
    )
    tracing = mode == "everything"
    if mode == "everything" and not tracemalloc.is_tracing():
        tracemalloc.start()
    try:
        with SimCapture(tracing=tracing, profiler=profiler):
            result = fn(scale, seed)
    finally:
        if mode == "everything":
            tracemalloc.stop()
    assert profiler.events > 0
    return result_digest(result)


@pytest.mark.parametrize("figure", ["fabric", "fig10"])
def test_profiling_never_perturbs_digests(figure):
    digests = {
        mode: _run_cell_with(figure, seed=1, mode=mode)
        for mode in ("none", "profiled", "everything")
    }
    assert len(set(digests.values())) == 1, digests


# ----------------------------------------------------------------------
# the profiler pass of a repro.bench/2 report
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fabric_report():
    return run_bench(
        ["fabric_micro"], scale="tiny", seed=1, repeats=1, trace_malloc=True
    )


def test_run_profile_report_shape(fabric_report):
    assert fabric_report["schema"] == "repro.bench/2"
    assert fabric_report["trace_malloc"] is True
    cell = fabric_report["cells"]["fabric"]  # alias resolved
    assert cell["consistent"]
    assert cell["events"] > 0 and cell["events_per_s"] > 0
    assert cell["simulators"] == 1
    profile = cell["profile"]
    assert profile["events"] == cell["events"]
    assert sum(cell["event_counts"].values()) == cell["events"]
    # the acceptance bar: per-subsystem self time sums (within 1%) to
    # the total attributed dispatch wall time
    total = profile["dispatch_wall_s"] + profile["outside_wall_s"]
    self_sum = sum(s["self_s"] for s in profile["subsystems"].values())
    assert abs(self_sum - total) <= 0.01 * total
    assert "repro.sim.network" in profile["subsystems"]
    assert any(
        c["name"].startswith("repro.sim.network:")
        for c in profile["callbacks"]
    )
    assert profile["frames"]["net.maxmin_fill"]["count"] > 0
    gauges = profile["gauges"]
    for name in ("engine.queue_depth", "engine.tombstone_ratio",
                 "net.rebalance_component_flows", "net.dirty_links"):
        assert gauges[name]["n"] > 0, name
    memory = profile["memory"]
    assert memory["samples"] > 0 and memory["peak_kb"] > 0
    assert memory["phases"] and all(
        p["peak_kb_max"] >= p["current_kb_mean"] > 0
        for p in memory["phases"]
    )


def test_flamegraph_exports(fabric_report):
    profile = fabric_report["cells"]["fabric"]["profile"]
    collapsed = collapsed_stacks(fabric_report)
    lines = collapsed.strip().splitlines()
    assert lines
    for line in lines:
        stack, weight = line.rsplit(" ", 1)
        assert int(weight) > 0
        parts = stack.split(";")
        assert parts[0] == "fabric" and len(parts) > 1  # rooted at the cell
        assert all(parts)
    assert any("net.maxmin_fill" in line for line in lines)
    # the weights (whole microseconds of self time) tile the profiled
    # wall clock
    total_us = sum(int(line.rsplit(" ", 1)[1]) for line in lines)
    assert total_us / 1e6 == pytest.approx(
        profile["dispatch_wall_s"] + profile["outside_wall_s"], rel=0.02
    )

    # several cells: the same stacks, rooted at each cell's name
    cell = fabric_report["cells"]["fabric"]
    two = collapsed_stacks(dict(fabric_report, cells={"a": cell, "b": cell}))
    roots = [line.split(";", 1)[0] for line in two.splitlines()]
    assert roots == ["a"] * len(lines) + ["b"] * len(lines)


def test_compare_profiles_gate(fabric_report):
    report = fabric_report
    failures, notes = compare_reports(report, report, tolerance=0.25)
    assert failures == [] and notes == []

    def with_cell(**changes):
        cell = dict(report["cells"]["fabric"], **changes)
        return dict(report, cells={"fabric": cell})

    cell = report["cells"]["fabric"]
    slower = with_cell(events_per_s=cell["events_per_s"] * 0.1)
    failures, _notes = compare_reports(report, slower, tolerance=0.25)
    assert any("regressed" in f for f in failures)
    perturbed = with_cell(consistent=False)
    failures, _notes = compare_reports(report, perturbed, tolerance=0.25)
    assert any("perturbed" in f for f in failures)
    with pytest.raises(ValueError):
        compare_reports(report, report, tolerance=1.0)

    # a subsystem self-time share shift of 5pp or more is a note
    subs = json.loads(json.dumps(cell["profile"]["subsystems"]))
    subs["repro.sim.network"]["self_pct"] -= 6.0
    shifted = with_cell(profile=dict(cell["profile"], subsystems=subs))
    failures, notes = compare_reports(report, shifted, tolerance=0.25)
    assert failures == []
    assert any(
        "repro.sim.network self-time share shifted" in n and "-6.0pp" in n
        for n in notes
    )


# ----------------------------------------------------------------------
# CLI: repro bench prints and exports the profile
# ----------------------------------------------------------------------
def test_cli_prof_writes_report_and_flamegraphs(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "BENCH.json"
    flame = tmp_path / "prof.flame"
    rc = main(["bench", "fabric_micro", "--scale", "tiny", "--seed", "1",
               "--repeats", "1", "--trace-malloc", "--out", str(out),
               "--flame", str(flame)])
    assert rc == 0
    printed = capsys.readouterr().out
    for title in ("per-subsystem wall time", "hottest callbacks",
                  "instrumented internals", "engine health", "memory:"):
        assert title in printed, title
    report = json.loads(out.read_text())
    assert report["schema"] == "repro.bench/2"
    assert report["cells"]["fabric"]["consistent"]
    assert report["cells"]["fabric"]["profile"]["memory"]["samples"] > 0
    assert flame.read_text().strip()

    # self-compare passes the gate with a generous tolerance
    rc = main(["bench", "fabric_micro", "--scale", "tiny", "--seed", "1",
               "--repeats", "1", "--out", "",
               "--tolerance", "0.9", "--compare", str(out)])
    assert rc == 0
    assert "bench OK" in capsys.readouterr().out
