"""Live telemetry: sampler, frame files, SSE server, open-ended driver."""

import json
import urllib.request

import pytest

from repro.obs.live import (
    FRAME_SCHEMA,
    JsonlFrameSink,
    LiveSampler,
    MemorySink,
    read_frames,
    summarize_frames,
    tail_jsonl,
)


# ----------------------------------------------------------------------
# sampler cadence on the virtual clock
# ----------------------------------------------------------------------
def test_sampler_cadence_on_virtual_clock(sim, native_cluster):
    sampler = LiveSampler(sim, interval_s=10.0, cluster=native_cluster)
    sampler.start()
    sim.schedule(35.0, sim.stop)
    sim.run()
    sampler.stop()
    # immediate sample at start, the 10s grid, and the closing sample
    assert [f["ts"] for f in sampler.frames] == [0.0, 10.0, 20.0, 30.0, 35.0]
    assert [f["seq"] for f in sampler.frames] == [0, 1, 2, 3, 4]


def test_sampler_stop_on_cadence_tick_does_not_duplicate(sim, native_cluster):
    sampler = LiveSampler(sim, interval_s=10.0, cluster=native_cluster)
    sampler.start()
    sim.schedule(20.0, sim.stop)
    sim.run()
    sampler.stop()
    assert [f["ts"] for f in sampler.frames] == [0.0, 10.0, 20.0]


def test_sampler_frame_layout(sim, hybrid_cluster):
    sampler = LiveSampler(sim, interval_s=5.0, cluster=hybrid_cluster)
    sampler.start()
    frame = sampler.latest
    assert frame["type"] == "frame"
    assert frame["schema"] == FRAME_SCHEMA
    for key in ("util", "slots", "queues", "sla", "blame", "chaos", "counters"):
        assert key in frame
    assert frame["util"]["tiers"]["native"]["pms"] == 2
    assert frame["util"]["tiers"]["virtual"]["pms"] == 2
    assert len(frame["util"]["racks"]) == 4
    # frames must be JSON-able as-is
    json.dumps(frame)


def test_sampler_rejects_bad_config(sim):
    with pytest.raises(ValueError):
        LiveSampler(sim, interval_s=0.0)
    with pytest.raises(ValueError):
        LiveSampler(sim, ring_size=0)


# ----------------------------------------------------------------------
# ring buffer + sinks
# ----------------------------------------------------------------------
def test_ring_buffer_eviction_keeps_newest(sim, native_cluster):
    memory = MemorySink()
    sampler = LiveSampler(sim, interval_s=1.0, ring_size=5,
                          cluster=native_cluster)
    sampler.add_sink(memory)
    sampler.start()
    sim.schedule(20.0, sim.stop)
    sim.run()
    # stop() halts the loop before the t=20 tick: frames cover 0..19s
    assert sampler.frames_emitted == 20
    assert len(sampler.frames) == 5
    assert [f["ts"] for f in sampler.frames] == [15.0, 16.0, 17.0, 18.0, 19.0]
    # sinks see every frame regardless of eviction
    assert len(memory.frames) == 20


def test_jsonl_sink_roundtrip(tmp_path, sim, native_cluster):
    path = str(tmp_path / "frames.jsonl")
    sampler = LiveSampler(sim, interval_s=5.0, cluster=native_cluster)
    with JsonlFrameSink(path) as sink:
        sampler.add_sink(sink)
        sampler.start()
        sim.schedule(30.0, sim.stop)
        sim.run()
        sampler.stop()
    frames = read_frames(path)
    assert len(frames) == sampler.frames_emitted == sink.frames_written
    assert frames[0]["ts"] == 0.0
    assert frames[-1]["ts"] == 30.0
    assert "frames over" in summarize_frames(frames)


def test_frames_pass_canonical_event_reader(tmp_path, sim, native_cluster):
    # a frames file must be a valid .jsonl event log for `repro trace`
    from repro.obs.export import read_jsonl, summarize_events

    path = str(tmp_path / "frames.jsonl")
    sampler = LiveSampler(sim, interval_s=5.0, cluster=native_cluster)
    sink = JsonlFrameSink(path)
    sampler.add_sink(sink)
    sampler.start()
    sim.schedule(10.0, sim.stop)
    sim.run()
    sink.close()
    events = read_jsonl(path)
    assert all(e["type"] == "frame" for e in events)
    assert "live frames" in summarize_events(events)


def test_tail_jsonl_follow_picks_up_appended_lines(tmp_path):
    path = str(tmp_path / "stream.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"type": "frame", "seq": 0}) + "\n")
        # a torn final line the writer has not finished yet
        fh.write('{"type": "frame", "se')

    state = {"sleeps": 0}

    def fake_sleep(_s):
        state["sleeps"] += 1
        if state["sleeps"] == 1:  # writer completes the line and appends
            with open(path, "a", encoding="utf-8") as fh:
                fh.write('q": 1}\n')
                fh.write(json.dumps({"type": "frame", "seq": 2}) + "\n")

    got = list(tail_jsonl(path, follow=True, poll_s=0.01,
                          idle_timeout_s=0.05, sleep=fake_sleep))
    assert [e["seq"] for e in got] == [0, 1, 2]


def test_tail_jsonl_no_follow_stops_at_eof(tmp_path):
    path = str(tmp_path / "stream.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"type": "frame", "seq": 0}) + "\n")
    assert [e["seq"] for e in tail_jsonl(path)] == [0]


# ----------------------------------------------------------------------
# the JSONL line rule: every reader of a frames file applies the same one
# ----------------------------------------------------------------------
_FRAMES = [{"type": "frame", "seq": i, "ts": 5.0 * i} for i in range(3)]


def _readers(path):
    """``repro trace FILE``, ``repro trace FILE --follow`` and
    ``repro serve``'s FrameStore, each as a call."""
    from repro.cli import main
    from repro.obs.serve import FrameStore

    return [
        lambda: main(["trace", path]),
        lambda: main(["trace", path, "--follow", "--idle-timeout", "0"]),
        lambda: FrameStore(path).frames(),
    ]


def test_readers_wait_for_an_unterminated_last_line(tmp_path, capsys):
    from repro.obs.live import _format_tail_line

    path = tmp_path / "live.jsonl"
    path.write_text(
        "".join(json.dumps(f) + "\n" for f in _FRAMES)
        + '{"type": "frame", "se'  # a live run is still writing this line
    )
    trace, follow, store = _readers(str(path))
    assert trace() == 0
    assert summarize_frames(_FRAMES) in capsys.readouterr().out
    assert follow() == 0
    assert capsys.readouterr().out.splitlines() == [
        _format_tail_line(f) for f in _FRAMES
    ]
    assert store() == _FRAMES


def test_readers_reject_a_malformed_line_alike(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        json.dumps(_FRAMES[0]) + "\nnot json\n" + json.dumps(_FRAMES[1]) + "\n"
    )
    errors = []
    for read in _readers(str(path)):
        with pytest.raises(ValueError) as err:
            read()
        errors.append(str(err.value))
    assert errors[0].startswith(f"{path}:2: bad JSON line")
    assert errors == [errors[0]] * 3


# ----------------------------------------------------------------------
# determinism: sampling must never perturb the simulation
# ----------------------------------------------------------------------
def test_same_seed_digest_equal_with_sampling_on_off():
    from repro.experiments.live import run

    kwargs = dict(scale="tiny", seed=11, horizon_s=400.0,
                  mean_interarrival_s=90.0)
    off = run(sample_interval_s=None, **kwargs)
    on = run(sample_interval_s=15.0, **kwargs)
    fast = run(sample_interval_s=2.0, **kwargs)
    assert off["completed"] > 0
    assert off["digest"] == on["digest"] == fast["digest"]
    assert on["frames_emitted"] > 0
    assert fast["frames_emitted"] > on["frames_emitted"]


def test_sampler_does_not_perturb_mapreduce_run(sim, virtual_cluster):
    # same cluster workload digest with and without a sampler attached
    from repro.mapreduce.cluster import MapReduceCluster
    from repro.sim.engine import Simulator
    from repro.workloads.specs import make_job
    from repro.cluster.cluster import Cluster

    def one_run(with_sampler):
        s = Simulator(seed=5)
        cluster = Cluster.virtual(s, 4, 2)
        mr = MapReduceCluster(s, cluster.fabric, list(cluster.vms))
        sampler = None
        if with_sampler:
            sampler = LiveSampler(s, interval_s=3.0, cluster=cluster, mr=mr)
            sampler.start()
        jobs = mr.run_jobs([make_job("Sort", input_gb=0.25),
                            make_job("Wcount", input_gb=0.25)])
        if sampler:
            sampler.stop()
        return [round(j.jct, 9) for j in jobs]

    assert one_run(False) == one_run(True)


# ----------------------------------------------------------------------
# open-ended driver
# ----------------------------------------------------------------------
def test_live_driver_horizon_termination():
    from repro.experiments.live import run

    result = run(scale="tiny", seed=3, horizon_s=300.0,
                 mean_interarrival_s=60.0, sample_interval_s=10.0)
    assert result["reached_s"] == pytest.approx(300.0, abs=60.0)
    assert result["interrupted"] is False
    assert result["arrived"] >= result["submitted"] >= result["completed"]
    assert result["frames_emitted"] >= 300.0 / 10.0
    # summary is JSON-able and NaN-free
    assert "nan" not in json.dumps(result).lower()


def test_live_driver_diurnal_and_shedding():
    from repro.experiments.live import run

    result = run(scale="tiny", seed=3, horizon_s=400.0,
                 mean_interarrival_s=20.0, diurnal_period_s=200.0,
                 max_active=1, sample_interval_s=None)
    assert result["shed"] > 0
    assert result["submitted"] + result["shed"] == result["arrived"]


def test_live_driver_is_a_sweep_cell():
    from repro.sweep.cells import load, resolve

    assert resolve("live") == "live"
    assert resolve("streaming") == "live"
    assert load("live").__module__ == "repro.experiments.live"


def test_live_driver_frames_file(tmp_path):
    from repro.experiments.live import run

    path = str(tmp_path / "frames.jsonl")
    result = run(scale="tiny", seed=3, horizon_s=200.0,
                 mean_interarrival_s=60.0, sample_interval_s=10.0,
                 frames_out=path)
    frames = read_frames(path)
    assert len(frames) == result["frames_written"] == result["frames_emitted"]
    assert frames[-1]["queues"]["finished_jobs"] == result["completed"]


# ----------------------------------------------------------------------
# SLA summaries: windowed and NaN-free when empty
# ----------------------------------------------------------------------
def _service(sim, cluster):
    from repro.interactive.loadgen import ConstantLoad
    from repro.interactive.service import RUBIS, InteractiveService

    return InteractiveService(sim, "rubis", RUBIS, list(cluster.vms)[:1],
                              ConstantLoad(50))


def test_latency_summary_empty_window_is_nan_free(sim, virtual_cluster):
    service = _service(sim, virtual_cluster)
    summary = service.latency_summary()
    assert summary["count"] == 0
    assert summary["violations"] == 0
    for value in summary.values():
        assert value == 0
    assert "nan" not in json.dumps(summary).lower()


def test_latency_summary_windowing(sim, virtual_cluster):
    service = _service(sim, virtual_cluster)
    service.start()
    sim.run(until=100.0)
    full = service.latency_summary()
    recent = service.latency_summary(window_s=20.0, now=100.0)
    assert full["count"] > recent["count"] > 0
    empty = service.latency_summary(window_s=5.0, now=1e6)
    assert empty["count"] == 0
    with pytest.raises(ValueError):
        service.latency_summary(window_s=0.0)


# ----------------------------------------------------------------------
# metrics snapshot: ordering
# ----------------------------------------------------------------------
def test_snapshot_key_ordering_is_stable():
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("z.last").inc()
    registry.counter("a.first").inc(2)
    registry.gauge("m.mid").set(3.0)
    snap = registry.snapshot()
    assert list(snap) == ["counters", "gauges", "histograms", "series"]
    assert list(snap["counters"]) == ["a.first", "z.last"]
    assert json.dumps(snap) == json.dumps(registry.snapshot())


# ----------------------------------------------------------------------
# SSE endpoint smoke test
# ----------------------------------------------------------------------
@pytest.fixture
def frame_file(tmp_path):
    from repro.experiments.live import run

    path = str(tmp_path / "frames.jsonl")
    run(scale="tiny", seed=3, horizon_s=200.0, mean_interarrival_s=60.0,
        sample_interval_s=20.0, frames_out=path)
    return path


def test_serve_endpoints_and_sse_replay(frame_file):
    from repro.obs.serve import FrameServer

    server = FrameServer(frame_file).start()
    try:
        n = len(server.store)
        assert n > 0
        health = urllib.request.urlopen(server.url + "/healthz", timeout=5)
        assert health.status == 200
        snap = json.loads(
            urllib.request.urlopen(server.url + "/snapshot", timeout=5).read()
        )
        assert snap["type"] == "frame"
        assert snap["seq"] == n - 1
        listing = json.loads(
            urllib.request.urlopen(server.url + "/frames", timeout=5).read()
        )
        assert len(listing) == n
        html = urllib.request.urlopen(server.url + "/", timeout=5).read()
        assert b"EventSource" in html and b"repro live" in html

        # SSE: full replay then a clean end event
        stream = urllib.request.urlopen(server.url + "/events", timeout=10)
        body = b""
        while b"event: end" not in body:
            chunk = stream.read(65536)
            if not chunk:
                break
            body += chunk
        payloads = [json.loads(line[6:])
                    for line in body.decode().splitlines()
                    if line.startswith("data: ")]
        frames = [p for p in payloads if p.get("type") == "frame"]
        assert [f["seq"] for f in frames] == list(range(n))

        # resume via ?since=
        stream = urllib.request.urlopen(
            server.url + f"/events?since={n - 2}", timeout=10
        )
        body = b""
        while b"event: end" not in body:
            chunk = stream.read(65536)
            if not chunk:
                break
            body += chunk
        tail = [json.loads(line[6:])
                for line in body.decode().splitlines()
                if line.startswith("data: ")]
        assert [f["seq"] for f in tail if f.get("type") == "frame"] == [n - 1]

        missing = urllib.request.urlopen(server.url + "/nope", timeout=5)
    except urllib.error.HTTPError as exc:
        assert exc.code == 404
    finally:
        server.stop()


def test_serve_snapshot_503_before_frames(tmp_path):
    from repro.obs.serve import FrameServer

    path = str(tmp_path / "empty.jsonl")
    open(path, "w").close()
    server = FrameServer(path, follow=True).start()
    try:
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/snapshot", timeout=5)
        assert err.value.code == 503
    finally:
        server.stop()


def test_serve_follow_streams_new_frames(tmp_path):
    from repro.obs.serve import FrameServer

    path = str(tmp_path / "growing.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"type": "frame", "seq": 0, "ts": 0.0}) + "\n")
    server = FrameServer(path, follow=True, poll_s=0.02).start()
    try:
        stream = urllib.request.urlopen(server.url + "/events", timeout=10)
        first = b""
        while b'"seq": 0' not in first:
            first += stream.read(1)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "frame", "seq": 1, "ts": 5.0}) + "\n")
        second = b""
        while b'"seq": 1' not in second:
            second += stream.read(1)
    finally:
        server.stop()


def test_serve_reports_a_malformed_line(tmp_path):
    """A line that breaks the JSONL line rule while the file is served
    gets an HTTP error naming it, not a dropped connection."""
    from repro.obs.serve import FrameServer

    path = tmp_path / "served.jsonl"
    path.write_text("".join(json.dumps(f) + "\n" for f in _FRAMES))
    server = FrameServer(str(path), follow=True, poll_s=0.02).start()
    try:
        stream = urllib.request.urlopen(server.url + "/events", timeout=10)
        body = b""
        while f'"seq": {len(_FRAMES) - 1}'.encode() not in body:
            body += stream.read(1)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("garbage\n")
        while True:  # the stream names the line, then closes
            chunk = stream.read(1)
            if not chunk:
                break
            body += chunk
        error = f"{path}:{len(_FRAMES) + 1}: bad JSON line"
        tail = body.decode().split("\n\n")[-2].splitlines()
        assert tail[0] == "event: error"
        assert json.loads(tail[1][len("data: "):])["error"].startswith(error)
        for route in ("/snapshot", "/frames"):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + route, timeout=5)
            assert err.value.code == 500
            assert json.loads(err.value.read())["error"].startswith(error)
    finally:
        server.stop()


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
def test_cli_live_and_trace_follow(tmp_path, capsys):
    from repro.cli import main

    frames = str(tmp_path / "f.jsonl")
    summary = str(tmp_path / "s.json")
    rc = main(["live", "--scale", "tiny", "--horizon", "200",
               "--mean-interarrival", "60", "--sample-interval", "20",
               "--frames-out", frames, "--json-out", summary])
    assert rc == 0
    out = capsys.readouterr().out
    assert "frames" in out and "digest" in out
    assert json.load(open(summary))["completed"] >= 0

    rc = main(["trace", frames, "--follow", "--idle-timeout", "0.05"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines and all(line.startswith("frame") for line in lines)

    # and the plain summarizer still accepts a frames file
    rc = main(["trace", frames])
    assert rc == 0
    assert "live frames" in capsys.readouterr().out
