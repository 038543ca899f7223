"""repro.grid: protocol framing, study state machine, streaming
aggregates, and the coordinator/worker loop under failure.

The socket tests run the real :class:`Coordinator` against in-thread
workers with an injected ``execute`` (microseconds per cell), so the
failure paths -- worker death mid-cell, heartbeat timeout, retry
exhaustion, coordinator kill + resume -- are exercised with real wire
traffic but no simulator cost.  One subprocess test runs the genuine
fleet (``python -m repro grid worker``) over cheap real cells and pins
the headline determinism contract: the grid's canonical report is
byte-identical to a single-process ``run_sweep`` of the same spec.
"""

import io
import json
import socket
import statistics
import threading

import pytest

from repro.grid import (
    Coordinator,
    GridProgress,
    StreamingStats,
    StudyState,
    WorkUnit,
    parse_address,
    protocol,
    run_grid,
    run_worker,
    shard_spec,
)
from repro.grid.state import DONE, FAILED, INFLIGHT, QUEUED
from repro.sweep import (
    ResultCache,
    SweepSpec,
    canonical_report,
    cell_key,
    run_sweep,
)

CHEAP_PARAMS = {"parts": "fig1c", "sizes_gb": 1.0}


def cheap_spec(seeds=(1,), figures=("fig01",)):
    return SweepSpec(
        figures=figures, scales=("tiny",), seeds=seeds, params=CHEAP_PARAMS
    )


def fake_execute(config):
    """A deterministic stand-in for ``execute_cell`` (no simulator)."""
    return {
        "figure": config["figure"],
        "scale": config["scale"],
        "seed": config["seed"],
        "params": dict(config.get("params", {})),
        "result": {"metric": float(config["seed"]) * 2.0},
        "metrics": {},
        "wall_s": 0.0,
    }


def make_units(n, figure="fig01"):
    return [
        WorkUnit(
            index=i,
            key=f"k{i}",
            config={
                "figure": figure,
                "scale": "tiny",
                "seed": i + 1,
                "params": {},
            },
            label=f"{figure}@tiny seed={i + 1}",
        )
        for i in range(n)
    ]


def worker_thread(coord, worker_id, execute=fake_execute, heartbeat_s=0.1):
    thread = threading.Thread(
        target=run_worker,
        args=(coord.host, coord.port),
        kwargs={
            "worker_id": worker_id,
            "execute": execute,
            "heartbeat_s": heartbeat_s,
        },
        daemon=True,
    )
    thread.start()
    return thread


# ----------------------------------------------------------------------
# protocol framing
# ----------------------------------------------------------------------
def test_protocol_round_trips_every_message():
    messages = [
        protocol.hello("w0", 123),
        protocol.welcome("study", 2.0),
        protocol.ready("w0"),
        protocol.work("k", {"figure": "fig01"}, 1, "label"),
        protocol.drain(0.5),
        protocol.shutdown(),
        protocol.result("w0", "k", 1, {"result": {"x": 1}}),
        protocol.error("w0", "k", 2, "boom", "tb"),
        protocol.heartbeat("w0", "k"),
        protocol.heartbeat("w0", None),
    ]
    buf = io.BytesIO()
    for msg in messages:
        protocol.send_msg(buf, msg)
    buf.seek(0)
    assert [protocol.recv_msg(buf) for _ in messages] == messages
    assert protocol.recv_msg(buf) is None  # EOF


def test_protocol_rejects_garbage_frames():
    with pytest.raises(protocol.ProtocolError):
        protocol.recv_msg(io.BytesIO(b"not json\n"))
    with pytest.raises(protocol.ProtocolError):
        protocol.recv_msg(io.BytesIO(b'{"no": "type"}\n'))
    with pytest.raises(protocol.ProtocolError):
        protocol.recv_msg(io.BytesIO(b'[1, 2]\n'))


def test_parse_address():
    assert parse_address("127.0.0.1:8000") == ("127.0.0.1", 8000)
    with pytest.raises(ValueError):
        parse_address("no-port")
    with pytest.raises(ValueError):
        parse_address(":8000")


# ----------------------------------------------------------------------
# the state machine (no sockets, no clocks)
# ----------------------------------------------------------------------
def test_claim_hands_out_lowest_index_first():
    state = StudyState(make_units(3))
    state.register_worker("a", now=0.0)
    state.register_worker("b", now=0.0)
    first = state.claim("a", now=0.0)
    second = state.claim("b", now=0.0)
    assert (first.index, second.index) == (0, 1)
    assert first.status == INFLIGHT and first.attempts == 1
    # a worker with an inflight unit cannot claim another
    assert state.claim("a", now=0.0) is None


def test_fail_requeues_with_exponential_backoff():
    state = StudyState(make_units(1), max_attempts=3, backoff_s=0.5)
    state.register_worker("a", now=0.0)
    state.claim("a", now=0.0)
    state.fail("k0", now=0.0, reason="boom")
    unit = state.unit_for("k0")
    assert unit.status == QUEUED
    assert unit.not_before == pytest.approx(0.5)  # backoff * 2^0
    assert state.retry_after(now=0.0) == pytest.approx(0.5)
    # gated: not claimable before the backoff expires
    assert state.claim("a", now=0.1) is None
    assert state.claim("a", now=0.5) is not None
    state.fail("k0", now=1.0, reason="boom again")
    assert unit.not_before == pytest.approx(1.0 + 0.5 * 2)  # backoff * 2^1


def test_retry_exhaustion_yields_failed_record_and_finishes():
    state = StudyState(make_units(1), max_attempts=2, backoff_s=0.0)
    state.register_worker("a", now=0.0)
    for attempt in range(2):
        assert state.claim("a", now=float(attempt)) is not None
        state.fail("k0", now=float(attempt), reason=f"boom {attempt}")
    unit = state.unit_for("k0")
    assert unit.status == FAILED
    assert state.finished
    (record,) = state.failure_records()
    assert record["failed"] and record["attempts"] == 2
    assert record["error"] == "boom 1"
    assert record["errors"] == ["boom 0", "boom 1"]
    assert state.completed_records() == []


def test_duplicate_completion_is_dropped():
    state = StudyState(make_units(1))
    state.register_worker("a", now=0.0)
    state.claim("a", now=0.0)
    doc = fake_execute(state.unit_for("k0").config)
    assert state.complete("k0", doc) is True
    assert state.complete("k0", dict(doc)) is False
    assert state.counts()["duplicates"] == 1
    assert state.counts()["completed"] == 1
    # records keep spec order metadata
    assert state.records[0]["key"] == "k0"


def test_lose_worker_requeues_its_inflight_unit():
    state = StudyState(make_units(2))
    state.register_worker("a", now=0.0)
    unit = state.claim("a", now=0.0)
    assert state.lose_worker("a", now=1.0, reason="died") == unit.key
    assert unit.status == QUEUED
    assert state.counts()["requeues"] == 1
    assert state.counts()["workers_lost"] == 1
    # losing it twice is a no-op
    assert state.lose_worker("a", now=1.0, reason="died") is None
    # the id can reconnect after a loss
    state.register_worker("a", now=2.0)


def test_retire_worker_is_not_a_loss():
    state = StudyState(make_units(1))
    state.register_worker("a", now=0.0)
    state.retire_worker("a")
    assert state.counts()["workers_lost"] == 0
    assert state.counts()["workers"] == 0


def test_stale_workers_by_heartbeat_age():
    state = StudyState(make_units(2), heartbeat_timeout_s=1.0)
    state.register_worker("a", now=0.0)
    state.register_worker("b", now=0.0)
    state.beat("b", now=1.5)
    assert state.stale_workers(now=1.8) == ["a"]
    assert state.stale_workers(now=0.5) == []


# ----------------------------------------------------------------------
# streaming aggregates
# ----------------------------------------------------------------------
def test_streaming_stats_match_batch_statistics():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    stats = StreamingStats()
    for v in values:
        stats.push(v)
    snap = stats.snapshot()
    assert snap["n"] == len(values)
    assert snap["mean"] == pytest.approx(statistics.fmean(values))
    assert snap["p50"] == pytest.approx(statistics.median(values))
    assert stats.percentile(0.0) == min(values)
    assert stats.percentile(100.0) == max(values)


def test_streaming_stats_small_n_exact_pinned():
    """Percentiles are *exact* -- pinned against hand-computed linear
    interpolation."""
    stats = StreamingStats()
    for v in (10.0, 20.0, 30.0, 40.0):
        stats.push(v)
    assert stats.snapshot() == {"n": 4, "mean": 25.0, "p50": 25.0, "p95": 38.5}


def test_streaming_stats_bounded_past_handoff():
    """Percentiles stay exact however many samples arrive: at 20,000
    samples every one equals ``sim.trace.percentile`` over all values."""
    import random

    from repro.sim.trace import percentile

    rng = random.Random(3)
    stats = StreamingStats()
    values = [rng.uniform(0.0, 100.0) for _ in range(20_000)]
    for v in values:
        stats.push(v)
    assert stats.n == 20_000
    assert stats.mean == pytest.approx(statistics.fmean(values))
    for q in (0.0, 50.0, 75.0, 95.0, 100.0):
        assert stats.percentile(q) == percentile(values, q)
    assert stats.percentile(0.0) == min(values)
    assert stats.percentile(100.0) == max(values)
    snap = stats.snapshot()
    assert snap["p50"] == percentile(values, 50.0)
    assert snap["p95"] == percentile(values, 95.0)


def test_grid_progress_frames_accumulate_groups():
    frames = []
    progress = GridProgress("study", total_cells=2, sink=frames.append)
    for seed in (1, 2):
        progress.observe(
            dict(fake_execute({
                "figure": "fig01", "scale": "tiny",
                "seed": seed, "params": {},
            }), wall_s=0.5 * seed)
        )
    frame = progress.frame(ts=1.0, counts={"completed": 2}, done=True)
    assert frames == [frame]
    assert frame["schema"] == protocol.PROTOCOL
    assert frame["seq"] == 0 and progress.seq == 1
    assert frame["grid"] == {"completed": 2, "done": True}
    assert frame["wall_s"]["n"] == 2
    (group,) = frame["groups"]
    assert group["metrics"]["metric"]["n"] == 2
    assert group["metrics"]["metric"]["mean"] == pytest.approx(3.0)


# ----------------------------------------------------------------------
# fleet-health telemetry (worker snapshots, queue age, status CLI)
# ----------------------------------------------------------------------
def test_heartbeat_carries_optional_rtt():
    msg = protocol.heartbeat("w", "k", rtt_ms=3.14159)
    assert msg["rtt_ms"] == 3.142
    assert "rtt_ms" not in protocol.heartbeat("w", "k")
    # extra fields survive the wire (old coordinators just ignore them)
    buf = io.BytesIO()
    protocol.send_msg(buf, msg)
    buf.seek(0)
    assert protocol.recv_msg(buf)["rtt_ms"] == 3.142


def test_worker_snapshots_track_fleet_health():
    state = StudyState(make_units(2))
    state.mark_queued(0.0)
    state.register_worker("a", now=0.0)
    state.register_worker("b", now=0.0)
    unit = state.claim("a", now=0.0)
    state.beat("a", now=1.0, rtt_ms=4.25)
    doc = dict(fake_execute(unit.config), events=5000, wall_s=2.5)
    state.complete(unit.key, doc)

    a, b = state.worker_snapshots(now=2.0)
    assert a["id"] == "a" and a["alive"]
    assert a["beat_age_s"] == pytest.approx(1.0)
    assert a["unit"] is None  # completed, back to idle
    assert a["cells"] == 1 and a["events"] == 5000
    assert a["busy_s"] == pytest.approx(2.5)
    assert a["events_per_s"] == pytest.approx(2000.0)
    assert a["rtt_ms"] == pytest.approx(4.25)
    assert b["cells"] == 0 and b["events_per_s"] == 0.0
    assert b["rtt_ms"] is None
    assert b["beat_age_s"] == pytest.approx(2.0)

    # a bounced attempt is charged to the worker that held the unit,
    # and the requeue re-stamps the unit's queue entry time
    unit2 = state.claim("a", now=2.0)
    state.fail(unit2.key, now=2.0, reason="boom")
    snapshots = state.worker_snapshots(now=2.0)
    assert snapshots[0]["retries_charged"] == 1
    assert snapshots[1]["retries_charged"] == 0
    assert state.unit_for(unit2.key).queued_at == pytest.approx(2.0)

    # an orderly retirement is distinguishable from a loss
    state.retire_worker("b")
    a, b = state.worker_snapshots(now=3.0)
    assert not b["alive"] and b["retired"]
    assert not a["retired"]


def test_queue_age_stats_percentiles():
    state = StudyState(make_units(4))
    state.mark_queued(0.0)
    state.register_worker("a", now=0.0)
    state.claim("a", now=0.0)  # inflight units are excluded
    for unit, queued_at in zip(state.units[1:], (2.0, 4.0, 6.0)):
        unit.queued_at = queued_at
    stats = state.queue_age_stats(now=10.0)
    assert stats["n"] == 3
    assert stats["p50"] == pytest.approx(6.0)
    assert stats["max"] == pytest.approx(8.0)
    assert stats["p95"] >= stats["p50"]
    empty = StudyState([]).queue_age_stats(now=1.0)
    assert empty == {"n": 0, "p50": 0.0, "p95": 0.0, "max": 0.0}


def test_grid_progress_frame_carries_fleet_telemetry():
    progress = GridProgress("study", total_cells=1, sink=lambda f: None)
    workers = [{"id": "w0", "alive": True}]
    queue_age = {"n": 1, "p50": 0.5, "p95": 0.5, "max": 0.5}
    frame = progress.frame(
        ts=1.0, counts={}, workers=workers, queue_age=queue_age
    )
    assert frame["workers"] == workers
    assert frame["queue_age"] == queue_age
    bare = progress.frame(ts=2.0, counts={})
    assert "workers" not in bare and "queue_age" not in bare


def test_cli_grid_status_renders_fleet_panel(tmp_path, capsys):
    from repro.cli import main

    frame = {
        "type": "frame", "schema": protocol.PROTOCOL,
        "study": "s", "ts": 12.0, "seq": 3,
        "grid": {"completed": 1, "cells": 4, "cache_hits": 0, "failed": 0,
                 "inflight": 1, "queued": 2, "workers": 2,
                 "workers_lost": 1, "requeues": 1, "done": False},
        "wall_s": {"n": 1, "mean": 2.0, "p95": 2.0},
        "queue_age": {"n": 2, "p50": 3.0, "p95": 5.0, "max": 5.5},
        "workers": [
            {"id": "w0", "alive": True, "beat_age_s": 0.4,
             "unit": "fig01@tiny seed=2", "cells": 1, "retries_charged": 1,
             "events": 5000, "busy_s": 2.5, "events_per_s": 2000.0,
             "rtt_ms": 4.2},
            {"id": "w1", "alive": False, "beat_age_s": 9.0, "unit": None,
             "cells": 0, "retries_charged": 0, "events": 0, "busy_s": 0.0,
             "events_per_s": 0.0, "rtt_ms": None},
        ],
        "groups": [],
    }
    path = tmp_path / "frames.jsonl"
    path.write_text(json.dumps(frame) + "\n")
    assert main(["grid", "status", str(path)]) == 0
    out = capsys.readouterr().out
    assert "queue age    p50 3.0s / p95 5.0s / max 5.5s over 2 queued" in out
    assert "worker w0" in out and "beat 0.4s ago" in out
    assert "on fig01@tiny s" in out  # unit label truncated for the row
    assert "1 retries charged, 2,000 ev/s, rtt 4.2ms" in out
    assert "worker w1" in out and "LOST" in out and "idle" in out


def test_grid_study_frames_include_fleet_telemetry(tmp_path):
    frames = []
    spec = cheap_spec(seeds=(1, 2))
    cache = ResultCache(tmp_path / "c")
    coord = Coordinator(
        spec, cache, backoff_s=0.05, frame_sink=frames.append
    ).start()
    thread = worker_thread(coord, "t0")
    report = coord.run()
    thread.join(timeout=5.0)
    assert report["totals"]["executed"] == 2
    final = frames[-1]
    assert final["grid"]["done"] is True
    assert final["queue_age"]["n"] == 0  # drained
    (worker,) = final["workers"]
    assert worker["id"] == "t0" and worker["cells"] == 2


# ----------------------------------------------------------------------
# coordinator + workers over real sockets (injected execute)
# ----------------------------------------------------------------------
def test_grid_study_completes_with_threaded_workers(tmp_path):
    spec = cheap_spec(seeds=(1, 2, 3))
    cache = ResultCache(tmp_path / "c")
    coord = Coordinator(spec, cache, backoff_s=0.05).start()
    threads = [worker_thread(coord, f"t{i}") for i in range(2)]
    report = coord.run()
    for thread in threads:
        thread.join(timeout=5.0)
    assert report["totals"] == dict(
        report["totals"], cells=3, executed=3, cache_hits=0, failed=0
    )
    assert report["grid"]["workers_lost"] == 0
    # records are in spec grid order regardless of which worker won
    assert [c["seed"] for c in report["cells"]] == [1, 2, 3]
    # every completion became durable before it became observable
    assert all(
        cache.get(cell_key(c.config())) is not None for c in spec.cells()
    )


def test_worker_death_mid_cell_requeues_to_a_survivor(tmp_path):
    spec = cheap_spec(seeds=(1, 2))
    cache = ResultCache(tmp_path / "c")
    coord = Coordinator(spec, cache, backoff_s=0.05).start()

    # a fake worker claims a cell and dies holding it
    sock = socket.create_connection((coord.host, coord.port))
    rfh, wfh = sock.makefile("rb"), sock.makefile("wb")
    protocol.send_msg(wfh, protocol.hello("victim", 1))
    assert protocol.recv_msg(rfh)["type"] == protocol.WELCOME
    protocol.send_msg(wfh, protocol.ready("victim"))
    claimed = protocol.recv_msg(rfh)
    assert claimed["type"] == protocol.WORK
    sock.close()  # SIGKILL, as seen from the coordinator

    survivor = worker_thread(coord, "survivor")
    report = coord.run()
    survivor.join(timeout=5.0)
    assert report["totals"]["cells"] == 2
    assert report["totals"]["failed"] == 0
    assert report["grid"]["workers_lost"] == 1
    assert report["grid"]["requeues"] == 1
    # the orphaned cell was completed elsewhere
    done = {c["key"] for c in report["cells"]}
    assert claimed["key"] in done


def test_heartbeat_timeout_reaps_wedged_worker(tmp_path):
    spec = cheap_spec(seeds=(1,))
    cache = ResultCache(tmp_path / "c")
    coord = Coordinator(
        spec, cache, backoff_s=0.05, heartbeat_timeout_s=0.3, max_attempts=2
    ).start()

    # wedged: claims the only cell, stays connected, never heartbeats
    sock = socket.create_connection((coord.host, coord.port))
    rfh, wfh = sock.makefile("rb"), sock.makefile("wb")
    protocol.send_msg(wfh, protocol.hello("wedged", 1))
    protocol.recv_msg(rfh)
    protocol.send_msg(wfh, protocol.ready("wedged"))
    assert protocol.recv_msg(rfh)["type"] == protocol.WORK

    survivor = worker_thread(coord, "survivor")
    try:
        report = coord.run()
    finally:
        sock.close()
    survivor.join(timeout=5.0)
    assert report["grid"]["workers_lost"] == 1
    assert report["totals"]["failed"] == 0
    assert report["totals"]["executed"] == 1


def test_retry_exhaustion_records_failed_cell_without_hanging(tmp_path):
    spec = cheap_spec(seeds=(1, 2))
    cache = ResultCache(tmp_path / "c")

    def poison(config):
        if config["seed"] == 2:
            raise ValueError("poison cell")
        return fake_execute(config)

    coord = Coordinator(spec, cache, max_attempts=2, backoff_s=0.01).start()
    thread = worker_thread(coord, "t0", execute=poison)
    report = coord.run()
    thread.join(timeout=5.0)
    assert report["totals"]["failed"] == 1
    assert report["totals"]["executed"] == 1
    (failure,) = report["failures"]
    assert failure["seed"] == 2 and failure["attempts"] == 2
    assert "poison cell" in failure["error"]
    # the failed cell still occupies its spec-order slot in the report
    assert [c["seed"] for c in report["cells"]] == [1, 2]
    assert report["cells"][1]["failed"] is True
    # a poison cell never contaminates the durable cache
    assert cache.get(cell_key(spec.cells()[1].config())) is None


def test_killed_coordinator_resumes_with_zero_reexecution(tmp_path):
    spec = cheap_spec(seeds=(1, 2, 3))
    cache = ResultCache(tmp_path / "c")
    executions = []

    def counting(config):
        executions.append(config["seed"])
        return fake_execute(config)

    # first coordinator: one cell completes, then it is killed
    first = Coordinator(spec, cache, backoff_s=0.05).start()
    sock = socket.create_connection((first.host, first.port))
    rfh, wfh = sock.makefile("rb"), sock.makefile("wb")
    protocol.send_msg(wfh, protocol.hello("w", 1))
    protocol.recv_msg(rfh)
    protocol.send_msg(wfh, protocol.ready("w"))
    work = protocol.recv_msg(rfh)
    doc = counting(work["config"])
    protocol.send_msg(wfh, protocol.result("w", work["key"], 1, doc))
    protocol.send_msg(wfh, protocol.ready("w"))
    protocol.recv_msg(rfh)  # second work offer arrives: study is mid-flight
    first.stop()  # the kill
    sock.close()
    assert not first.state.finished

    # second coordinator, same cache: finished cells come back from disk
    second = Coordinator(spec, cache, backoff_s=0.05).start()
    assert second.resumed_from_cache == 1
    thread = worker_thread(second, "t0", execute=counting)
    report = second.run()
    thread.join(timeout=5.0)
    assert sorted(executions) == [1, 2, 3]  # each cell executed exactly once
    assert report["totals"]["cache_hits"] == 1
    assert report["totals"]["executed"] == 2
    assert report["grid"]["resumed_from_cache"] == 1
    assert [c["seed"] for c in report["cells"]] == [1, 2, 3]


def test_fully_cached_study_spawns_no_workers(tmp_path):
    spec = cheap_spec(seeds=(1, 2))
    cache = ResultCache(tmp_path / "c")
    for cell in spec.cells():
        cache.put(cell_key(cell.config()), fake_execute(cell.config()))
    report = run_grid(spec, cache, workers=2)
    assert report["totals"] == dict(
        report["totals"], cells=2, executed=0, cache_hits=2
    )
    assert report["grid"]["workers_spawned"] == 0
    assert report["grid"]["resumed_from_cache"] == 2


def test_shard_spec_keys_match_cell_key():
    spec = cheap_spec(seeds=(1, 2))
    units = shard_spec(spec)
    assert [u.index for u in units] == [0, 1]
    assert [u.key for u in units] == [
        cell_key(c.config()) for c in spec.cells()
    ]


# ----------------------------------------------------------------------
# the determinism contract, end to end (real cells, real fleet)
# ----------------------------------------------------------------------
def test_grid_canonical_report_matches_single_process_sweep(tmp_path):
    spec = cheap_spec(seeds=(1, 2))
    sweep = run_sweep(spec, jobs=1, cache=ResultCache(tmp_path / "sweep"))
    grid = run_grid(spec, ResultCache(tmp_path / "grid"), workers=2)
    assert grid["totals"]["failed"] == 0
    blob_sweep = json.dumps(canonical_report(sweep), sort_keys=True)
    blob_grid = json.dumps(canonical_report(grid), sort_keys=True)
    assert blob_sweep == blob_grid
