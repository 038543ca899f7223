"""Tests for the observability stack: tracer, metrics, exporters."""

import json

import pytest

from repro.cluster.cluster import Cluster
from repro.mapreduce.cluster import MapReduceCluster
from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    MetricsRegistry,
    Observability,
    Tracer,
)
from repro.obs.export import (
    chrome_trace,
    collect_events,
    read_jsonl,
    summarize_events,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.sim.engine import Simulator
from repro.virt.migration import LiveMigration
from repro.workloads.specs import make_job


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
def test_span_begin_end_records_interval():
    clock = {"t": 1.0}
    tracer = Tracer(lambda: clock["t"])
    span = tracer.begin("work", category="job", track="jobs", size=3)
    clock["t"] = 4.0
    tracer.end(span, status="ok")
    assert span.start == 1.0
    assert span.end == 4.0
    assert span.duration() == 3.0
    assert span.args == {"size": 3, "status": "ok"}
    assert not span.open


def test_span_nesting_via_parent():
    tracer = Tracer(lambda: 0.0)
    outer = tracer.begin("outer")
    inner = tracer.begin("inner", parent=outer)
    assert inner.parent_id == outer.span_id
    assert tracer.children_of(outer) == [inner]


def test_span_end_is_idempotent_and_null_safe():
    clock = {"t": 0.0}
    tracer = Tracer(lambda: clock["t"])
    span = tracer.begin("x")
    clock["t"] = 1.0
    tracer.end(span)
    clock["t"] = 2.0
    tracer.end(span)  # second end must not move the close time
    assert span.end == 1.0
    tracer.end(None)  # tolerated
    tracer.end(NULL_SPAN)  # the null span is never recorded


def test_span_context_manager_closes_on_exception():
    tracer = Tracer(lambda: 0.0)
    with pytest.raises(RuntimeError):
        with tracer.span("guarded"):
            raise RuntimeError("boom")
    assert tracer.open_spans() == []


def test_tracer_queries():
    tracer = Tracer(lambda: 0.0)
    a = tracer.begin("a", category="job")
    tracer.begin("b", category="net")
    tracer.instant("tick", category="sla")
    assert len(tracer) == 3
    assert [s.name for s in tracer.spans_of("job")] == ["a"]
    assert len(tracer.open_spans()) == 2
    tracer.end(a)
    assert len(tracer.open_spans()) == 1


def test_null_tracer_is_inert():
    assert not NULL_TRACER.enabled
    span = NULL_TRACER.begin("x", category="job", big_arg=object())
    assert span is NULL_SPAN
    NULL_TRACER.end(span)
    NULL_TRACER.instant("y")
    with NULL_TRACER.span("z") as handle:
        assert handle is NULL_SPAN
    assert len(NULL_TRACER) == 0
    assert NULL_TRACER.open_spans() == []


def test_enable_tracing_is_idempotent():
    obs = Observability()
    assert not obs.tracing
    tracer = obs.enable_tracing()
    tracer.begin("keep-me")
    assert obs.enable_tracing() is tracer  # second call keeps state
    assert len(tracer.spans) == 1


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
def test_counter_increments_and_rejects_decrease():
    registry = MetricsRegistry()
    counter = registry.counter("jobs")
    counter.inc()
    counter.inc(2.5)
    assert registry.counter("jobs") is counter
    assert registry.counters() == {"jobs": 3.5}
    with pytest.raises(ValueError):
        counter.inc(-1.0)


def test_gauge_history_follows_flag():
    clock = {"t": 0.0}
    registry = MetricsRegistry(clock=lambda: clock["t"])
    gauge = registry.gauge("load")
    gauge.set(1.0)  # history off: last value only
    assert "load" not in registry.traces
    registry.history = True
    clock["t"] = 5.0
    gauge.set(2.0)
    assert gauge.value == 2.0
    assert list(registry.timeseries("load")) == [(5.0, 2.0)]


def test_histogram_summary_percentiles():
    registry = MetricsRegistry()
    hist = registry.histogram("jct")
    for v in [10.0, 20.0, 30.0, 40.0]:
        hist.observe(v)
    summary = hist.summary()
    assert summary["count"] == 4.0
    assert summary["mean"] == pytest.approx(25.0)
    assert summary["p10"] == pytest.approx(13.0)
    assert summary["p50"] == pytest.approx(25.0)
    assert summary["p95"] == pytest.approx(38.5)
    assert summary["max"] == 40.0
    assert registry.histogram("empty").summary()["p99"] == 0.0


def test_empty_histogram_summary_is_nan_free_zeros():
    import math

    summary = MetricsRegistry().histogram("empty").summary()
    assert set(summary) == {
        "count", "mean", "min", "p10", "p50", "p95", "p99", "max"
    }
    assert all(v == 0.0 for v in summary.values())
    assert not any(math.isnan(v) for v in summary.values())


def test_histogram_ignores_non_finite_samples():
    hist = MetricsRegistry().histogram("h")
    hist.observe(float("nan"))
    hist.observe(float("inf"))
    hist.observe(5.0)
    summary = hist.summary()
    assert summary["count"] == 3.0  # raw sample count is preserved
    assert summary["mean"] == 5.0 and summary["max"] == 5.0
    assert summary["p50"] == 5.0
    # nothing but junk -> zeros, never NaN
    junk = MetricsRegistry().histogram("junk")
    junk.observe(float("nan"))
    assert all(v == 0.0 for k, v in junk.summary().items() if k != "count")


def test_snapshot_shape():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.gauge("g").set(7.0)
    registry.histogram("h").observe(1.0)
    snap = registry.snapshot()
    assert snap["counters"] == {"c": 1.0}
    assert snap["gauges"] == {"g": 7.0}
    assert snap["histograms"]["h"]["count"] == 1.0
    json.dumps(snap)  # must be JSON-serializable as-is


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def _tiny_obs():
    clock = {"t": 0.0}
    obs = Observability(clock=lambda: clock["t"])
    tracer = obs.enable_tracing()
    outer = tracer.begin("job", category="job", track="jobs")
    clock["t"] = 1.0
    inner = tracer.begin("map", category="task", track="tt", parent=outer)
    tracer.instant("probe", category="sla", track="sla", latency_ms=3.0)
    obs.metrics.counter("jobs.submitted").inc()
    obs.metrics.gauge("load").set(0.5)
    clock["t"] = 2.0
    tracer.end(inner)
    tracer.end(outer)
    return obs


def test_collect_events_covers_all_kinds():
    events = collect_events(_tiny_obs())
    kinds = {e["type"] for e in events}
    assert kinds == {"span", "instant", "sample", "counter"}
    spans = {e["name"]: e for e in events if e["type"] == "span"}
    assert spans["map"]["parent"] == spans["job"]["id"]
    assert spans["job"]["dur"] == pytest.approx(2.0)


def test_open_spans_marked_unfinished():
    obs = Observability()
    obs.enable_tracing().begin("dangling")
    (span,) = [e for e in collect_events(obs) if e["type"] == "span"]
    assert span["args"]["unfinished"] is True


def test_chrome_trace_validates_and_scales_to_us():
    doc = chrome_trace(collect_events(_tiny_obs()))
    n = validate_chrome_trace(doc)
    assert n == len(doc["traceEvents"])
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    job = next(e for e in complete if e["name"] == "job")
    assert job["dur"] == pytest.approx(2e6)  # seconds -> microseconds
    names = {e["args"]["name"] for e in doc["traceEvents"]
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert {"jobs", "tt", "sla"} <= names


def test_validate_chrome_trace_rejects_malformed():
    with pytest.raises(ValueError):
        validate_chrome_trace(["not", "a", "dict"])
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": [{"name": "x", "ph": "??", "pid": 1}]})
    with pytest.raises(ValueError):
        validate_chrome_trace(
            {"traceEvents": [{"name": "x", "ph": "X", "pid": 1, "ts": 0}]}
        )  # X without dur


def test_jsonl_round_trip(tmp_path):
    obs = _tiny_obs()
    path = str(tmp_path / "events.jsonl")
    n = write_jsonl(path, obs)
    events = read_jsonl(path)
    assert len(events) == n
    assert events == collect_events(obs)


def test_read_jsonl_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type": "span"}\nnot json\n')
    with pytest.raises(ValueError):
        read_jsonl(str(path))
    path.write_text('{"no_type": 1}\n')
    with pytest.raises(ValueError):
        read_jsonl(str(path))


def test_summaries_render():
    text = summarize_events(collect_events(_tiny_obs()))
    assert "spans by category" in text
    assert "counters" in text
    assert summarize_events([]) == "(empty trace)"


# ----------------------------------------------------------------------
# instrumented simulation
# ----------------------------------------------------------------------
def _run_traced_job(seed=42, tracing=True):
    sim = Simulator(seed=seed)
    if tracing:
        sim.obs.enable_tracing()
    cluster = Cluster.native(sim, 4)
    mr = MapReduceCluster(sim, cluster.fabric, cluster.native_contexts())
    job = mr.run_job(make_job("Sort", input_gb=0.25, num_reducers=2))
    return sim, job


def test_mr_run_produces_nested_spans():
    sim, job = _run_traced_job()
    tracer = sim.obs.tracer
    job_spans = tracer.spans_of("job")
    assert len(job_spans) == 1
    attempts = tracer.children_of(job_spans[0])
    assert len(attempts) == len(job.map_tasks) + len(job.reduce_tasks)
    stages = tracer.children_of(attempts[0])
    assert [s.name for s in stages] == ["init", "read", "cpu", "spill"]
    reduce_attempt = next(a for a in attempts if a.args["kind"] == "reduce")
    assert [s.name for s in tracer.children_of(reduce_attempt)] == [
        "init", "shuffle", "merge", "cpu", "output",
    ]
    assert tracer.open_spans() == []  # everything closed at job end
    assert tracer.spans_of("net"), "shuffle flows should leave net spans"


def test_mr_run_populates_metrics():
    sim, job = _run_traced_job()
    counters = sim.obs.metrics.counters()
    assert counters["jobs.completed"] == 1.0
    assert counters["attempts.completed"] == len(job.map_tasks) + len(
        job.reduce_tasks
    )
    jct_hist = sim.obs.metrics.histogram("job.jct_s")
    assert jct_hist.count == 1
    assert jct_hist.mean() == pytest.approx(job.jct)


def test_untraced_run_records_no_spans():
    sim, job = _run_traced_job(tracing=False)
    assert job.done
    assert len(sim.obs.tracer) == 0
    assert sim.obs.metrics.counters()["jobs.completed"] == 1.0


def test_tracing_does_not_perturb_determinism():
    _, plain = _run_traced_job(seed=7, tracing=False)
    _, traced = _run_traced_job(seed=7, tracing=True)
    assert traced.jct == plain.jct
    assert traced.map_phase_time == plain.map_phase_time
    assert traced.reduce_phase_time == plain.reduce_phase_time


def test_migration_spans(sim, virtual_cluster):
    sim.obs.enable_tracing()
    spare = virtual_cluster.add_pm("spare")
    vm = virtual_cluster.vms[0]
    moved = []
    LiveMigration(sim, virtual_cluster.fabric, vm, spare, on_complete=moved.append)
    sim.run(until=600.0)
    assert moved
    (span,) = sim.obs.tracer.spans_of("migration")[:1]
    assert span.name == f"migrate:{vm.name}"
    assert not span.open
    assert span.args["migration_time_s"] == pytest.approx(
        moved[0].migration_time_s
    )
    children = sim.obs.tracer.children_of(span)
    assert [c.name for c in children] == ["stop-and-copy"]
    assert sim.obs.metrics.counters()["migrations.completed"] == 1.0
    assert sim.obs.metrics.histogram("migration.downtime_ms").count == 1


def test_chrome_export_of_real_run(tmp_path):
    sim, _job = _run_traced_job()
    path = str(tmp_path / "trace.json")
    write_chrome_trace(path, sim.obs)
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    n = validate_chrome_trace(doc)
    assert n > 50
    cats = {e.get("cat") for e in doc["traceEvents"]}
    assert {"job", "task", "task.stage", "net"} <= cats


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
def test_cli_run_with_trace_artifacts(tmp_path, capsys):
    from repro.cli import main

    trace = tmp_path / "t.json"
    events = tmp_path / "t.jsonl"
    metrics = tmp_path / "m.json"
    rc = main(
        [
            "run", "wcount", "--pms", "4", "--input-gb", "0.25",
            "--trace", str(trace),
            "--events-out", str(events),
            "--metrics-out", str(metrics),
        ]
    )
    assert rc == 0
    with open(trace, "r", encoding="utf-8") as fh:
        assert validate_chrome_trace(json.load(fh)) > 0
    loaded = read_jsonl(str(events))
    assert any(e["type"] == "span" and e["cat"] == "job" for e in loaded)
    with open(metrics, "r", encoding="utf-8") as fh:
        snap = json.load(fh)
    assert snap["counters"]["jobs.completed"] == 1.0
    assert "wrote" in capsys.readouterr().out


def test_cli_trace_summarizes_jsonl(tmp_path, capsys):
    from repro.cli import main

    obs = _tiny_obs()
    events = tmp_path / "t.jsonl"
    write_jsonl(str(events), obs)
    chrome = tmp_path / "chrome.json"
    rc = main(["trace", str(events), "--chrome", str(chrome)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "spans by category" in out
    with open(chrome, "r", encoding="utf-8") as fh:
        validate_chrome_trace(json.load(fh))


def test_cli_trace_validates_chrome_json(tmp_path, capsys):
    from repro.cli import main

    obs = _tiny_obs()
    trace = tmp_path / "t.json"
    write_chrome_trace(str(trace), obs)
    assert main(["trace", str(trace)]) == 0
    assert "valid Chrome trace" in capsys.readouterr().out


# ----------------------------------------------------------------------
# exporter determinism
# ----------------------------------------------------------------------
def _export_bytes(tmp_path, tag, sims):
    """Chrome trace + JSONL bytes for every traced simulator, in order."""
    blobs = []
    for i, sim in enumerate(sims):
        chrome = tmp_path / f"{tag}-{i}.json"
        jsonl = tmp_path / f"{tag}-{i}.jsonl"
        write_chrome_trace(str(chrome), sim.obs)
        write_jsonl(str(jsonl), sim.obs)
        blobs.append(chrome.read_bytes())
        blobs.append(jsonl.read_bytes())
    return blobs


def test_exports_byte_identical_across_same_seed_runs(tmp_path):
    first = _export_bytes(tmp_path, "a", [_run_traced_job(seed=13)[0]])
    second = _export_bytes(tmp_path, "b", [_run_traced_job(seed=13)[0]])
    assert first == second


def test_exports_byte_identical_for_chaos_cell(tmp_path):
    """fig08-under-faults: traced exports replay byte-for-byte."""
    from repro.experiments.fig08_faults import run as run_faults
    from repro.obs.capture import SimCapture

    def one_run(tag):
        with SimCapture(tracing=True) as capture:
            run_faults(scale="tiny", seed=1, faults="poisson:node=0.02",
                       deployments=("native",), waves=1)
        assert capture.simulators
        return _export_bytes(tmp_path, tag, capture.simulators)

    assert one_run("a") == one_run("b")


# ----------------------------------------------------------------------
# top-span tables
# ----------------------------------------------------------------------
def test_top_spans_tables_and_empty_case():
    from repro.obs.export import top_spans

    sim, _job = _run_traced_job()
    text = top_spans(collect_events(sim.obs), 3)
    assert "slowest job spans" in text
    assert "slowest task spans" in text
    assert top_spans([], 3) == "(no spans)"


def test_cli_trace_top_prints_slowest_spans(tmp_path, capsys):
    from repro.cli import main

    sim, _job = _run_traced_job()
    events = tmp_path / "t.jsonl"
    write_jsonl(str(events), sim.obs)
    assert main(["trace", str(events), "--top", "2"]) == 0
    out = capsys.readouterr().out
    assert "slowest task.stage spans" in out
