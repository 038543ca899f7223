"""repro.obs.bench + SimCapture: the three passes, regression gate, CLI."""

import copy
import json

import pytest

from repro.cluster.cluster import Cluster
from repro.mapreduce.cluster import MapReduceCluster
from repro.obs.bench import (
    DEFAULT_CELLS,
    archive_report,
    compare_reports,
    format_bench,
    format_compare_table,
    result_digest,
    run_bench,
    run_cell,
    write_bench_json,
)
from repro.obs.capture import SimCapture, active_sim_capture
from repro.obs.critpath import CATEGORIES
from repro.sim.engine import Simulator
from repro.workloads.specs import make_job


def _tiny_job(seed=4):
    sim = Simulator(seed=seed)
    cluster = Cluster.native(sim, 4)
    mr = MapReduceCluster(sim, cluster.fabric, cluster.native_contexts())
    job = mr.run_job(make_job("Sort", input_gb=0.25, num_reducers=2))
    return sim, job


@pytest.fixture(scope="module")
def fig10_cell():
    return run_cell("fig10", scale="tiny", seed=1)


# ----------------------------------------------------------------------
# SimCapture + per-module event counts
# ----------------------------------------------------------------------
def test_sim_capture_collects_and_nests():
    assert active_sim_capture() is None
    with SimCapture() as outer:
        sim_a = Simulator(seed=1)
        with SimCapture() as inner:
            sim_b = Simulator(seed=2)
            assert inner.simulators == [sim_b]
            assert active_sim_capture() is inner
        assert active_sim_capture() is outer
        assert outer.simulators == [sim_a]
    assert active_sim_capture() is None


def test_sim_capture_forces_tracing_and_counts_spans():
    with SimCapture(tracing=True) as capture:
        sim, job = _tiny_job()
    assert job.done
    assert capture.total_spans() == len(sim.obs.tracer) > 0
    assert capture.total_events() == sim.events_processed > 0


def test_event_accounting_attributes_modules(fig10_cell):
    # the profiler pass counts every event, per callback module
    counts = fig10_cell["event_counts"]
    assert counts, "the profiler pass should record per-module event counts"
    assert sum(counts.values()) == fig10_cell["events"]
    assert any(module.startswith("repro.") for module in counts)
    assert counts == {
        name: sub["events"]
        for name, sub in fig10_cell["profile"]["subsystems"].items()
        if sub["events"]
    }


def test_event_accounting_off_by_default():
    sim, _job = _tiny_job()
    assert sim.prof is None and not sim.obs.tracing
    assert sim.events_processed > 0


def test_sim_capture_combined_blame_ties_to_makespan():
    with SimCapture(tracing=True) as capture:
        _sim, job = _tiny_job()
    blame = capture.combined_blame()
    assert blame["total"]["jobs"] == 1
    assert sum(blame["total"]["blame_s"].values()) == pytest.approx(
        job.jct, abs=1e-6
    )


# ----------------------------------------------------------------------
# run_cell / run_bench
# ----------------------------------------------------------------------
def test_run_cell_profiles_and_blames_fig10(fig10_cell):
    cell = fig10_cell
    assert cell["figure"] == "fig10"
    assert cell["events"] > 0 and cell["events_per_s"] > 0
    assert cell["spans"] > 0 and cell["jobs"] >= 1
    assert cell["consistent"] is True
    assert set(cell["blame_s"]) == set(CATEGORIES)
    assert cell["simulators"] >= 1
    profile = cell["profile"]
    assert profile["events"] == cell["events"]
    assert cell["wall_profiled_s"] >= profile["dispatch_wall_s"] > 0
    assert profile["gauges"]["engine.queue_depth"]["n"] > 0
    assert profile["memory"] is None  # tracemalloc is opt-in


def test_timing_pass_runs_every_simulator_bare(monkeypatch):
    """The timing pass times Simulator.run's fast loop: every simulator
    it builds enters run() with no profiler and tracing off.  The
    profiler and traced passes that follow it are instrumented."""
    calls = []
    real_run = Simulator.run

    def spy(sim, *args, **kwargs):
        calls.append((sim, sim.prof is not None, sim.obs.tracing))
        return real_run(sim, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run", spy)
    cell = run_cell("fig10", scale="tiny", seed=1, repeats=2)
    # passes run in order: timing x repeats, profiler, traced; each
    # makes the same run() calls
    per_pass = len(calls) // 4
    assert per_pass > 0 and len(calls) == 4 * per_pass
    timing = calls[: 2 * per_pass]
    assert not any(prof or tracing for _sim, prof, tracing in timing)
    assert len({id(sim) for sim, _, _ in timing[per_pass:]}) == cell["simulators"]
    profiled = calls[2 * per_pass: 3 * per_pass]
    assert all(prof and not tracing for _sim, prof, tracing in profiled)
    traced = calls[3 * per_pass:]
    assert all(tracing and not prof for _sim, prof, tracing in traced)


def test_run_bench_report_shape(tmp_path):
    report = run_bench(["fig10"], scale="tiny", seed=1)
    assert report["schema"] == "repro.bench/2"
    assert report["trace_malloc"] is False
    assert set(report["cells"]) == {"fig10"}
    totals = report["totals"]
    assert totals["events"] == report["cells"]["fig10"]["events"]
    assert totals["events_per_s"] > 0
    assert totals["peak_rss_kb"] is None or totals["peak_rss_kb"] > 0
    out = tmp_path / "bench.json"
    write_bench_json(str(out), report)
    assert json.loads(out.read_text()) == json.loads(
        json.dumps(report)
    )
    text = format_bench(report)
    assert "fig10" in text and "repro bench @ tiny" in text


def test_default_cells_cover_headline_and_chaos():
    assert "headline" in DEFAULT_CELLS and "chaos" in DEFAULT_CELLS


def test_result_digest_is_order_insensitive():
    assert result_digest({"a": 1, "b": 2}) == result_digest({"b": 2, "a": 1})
    assert result_digest({"a": 1}) != result_digest({"a": 2})


# ----------------------------------------------------------------------
# the regression gate
# ----------------------------------------------------------------------
def _fake_report(events_per_s=1000.0, digest="d0", consistent=True):
    return {
        "cells": {
            "fig10": {
                "events": 100,
                "events_per_s": events_per_s,
                "result_digest": digest,
                "consistent": consistent,
            }
        }
    }


def test_compare_reports_passes_identical_runs():
    report = _fake_report()
    failures, notes = compare_reports(report, report, 0.2)
    assert failures == [] and notes == []


def test_compare_reports_fails_on_regression():
    baseline = _fake_report(events_per_s=1000.0)
    current = _fake_report(events_per_s=700.0)  # -30% < -20% tolerance
    failures, _notes = compare_reports(baseline, current, 0.2)
    assert len(failures) == 1 and "regressed" in failures[0]
    # within tolerance: -10% passes
    failures, _notes = compare_reports(
        baseline, _fake_report(events_per_s=900.0), 0.2
    )
    assert failures == []


def test_compare_reports_fails_on_tracing_perturbation():
    baseline = _fake_report()
    current = _fake_report(consistent=False)
    failures, _notes = compare_reports(baseline, current, 0.2)
    assert any("perturbed" in f for f in failures)


def test_compare_reports_notes_digest_and_cell_drift():
    baseline = _fake_report()
    current = _fake_report(digest="d1")
    current["cells"]["new"] = dict(current["cells"]["fig10"])
    failures, notes = compare_reports(baseline, current, 0.2)
    assert failures == []
    assert any("digest changed" in n for n in notes)
    assert any("new cell" in n for n in notes)
    failures, notes = compare_reports(current, baseline, 0.2)
    assert any("missing from current" in n for n in notes)


def test_compare_reports_validates_tolerance():
    with pytest.raises(ValueError):
        compare_reports(_fake_report(), _fake_report(), 1.0)
    with pytest.raises(ValueError):
        compare_reports(_fake_report(), _fake_report(), -0.1)


def test_format_compare_table_shows_deltas_and_blame_shift():
    baseline = _fake_report(events_per_s=1000.0)
    baseline["cells"]["fig10"]["blame_pct"] = {"compute": 80.0, "shuffle_wait": 20.0}
    baseline["totals"] = {"events_per_s": 1000.0}
    current = _fake_report(events_per_s=500.0)
    current["cells"]["fig10"]["events"] = 110
    current["cells"]["fig10"]["blame_pct"] = {"compute": 60.0, "shuffle_wait": 40.0}
    current["cells"]["dropped_cell"] = None  # exercise asymmetric sets
    del current["cells"]["dropped_cell"]
    current["totals"] = {"events_per_s": 500.0}
    table = format_compare_table(baseline, current)
    assert "fig10" in table
    assert "-50.0%" in table  # per-cell events/s delta
    assert "shuffle_wait +20.0pp" in table or "compute -20.0pp" in table
    assert "1,000 -> 500" in table  # totals line


def test_archive_report_appends_history(tmp_path):
    report = _fake_report()
    report["totals"] = {"events_per_s": 1000.0}
    directory = str(tmp_path / "traj")
    first = archive_report(report, directory)
    second = archive_report(
        dict(report, totals={"events_per_s": 2000.0}), directory
    )
    assert first != second
    with open(first) as fh:
        assert json.load(fh)["cells"]["fig10"]["events"] == 100
    with open(f"{directory}/index.jsonl") as fh:
        lines = [json.loads(line) for line in fh]
    assert [e["total_events_per_s"] for e in lines] == [1000.0, 2000.0]
    assert all(e["events_per_s"]["fig10"] == 1000.0 for e in lines)


# ----------------------------------------------------------------------
# CLI: repro bench --compare exits non-zero on a synthetic regression
# ----------------------------------------------------------------------
def test_cli_bench_compare_gate(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    out = tmp_path / "BENCH.json"
    traj = tmp_path / "traj"
    rc = main(["bench", "fig10", "--scale", "tiny", "--seed", "1",
               "--out", str(out), "--trajectory-dir", str(traj)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["cells"]["fig10"]["events_per_s"] > 0
    # each run lands in the trajectory archive (file + index line)
    archived = list(traj.glob("bench-*.json"))
    assert len(archived) == 1
    index_lines = (traj / "index.jsonl").read_text().splitlines()
    assert len(index_lines) == 1
    assert json.loads(index_lines[0])["events_per_s"]["fig10"] > 0

    # self-compare passes the gate (generous tolerance: this pins the
    # gate mechanics, not this machine's timing stability)
    rc = main(["bench", "fig10", "--scale", "tiny", "--seed", "1",
               "--out", "", "--trajectory-dir", "none",
               "--compare", str(out), "--tolerance", "0.9"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "bench OK" in captured
    assert "bench vs baseline" in captured  # the per-cell delta table
    assert list(traj.glob("bench-*.json")) == archived  # 'none' skips

    # inject a synthetic regression: baseline claims 100x the speed.
    # Passed as both --compare and --out, the baseline is read before
    # anything is written and a failed run writes no report, so the
    # gate cannot pass against the run itself
    doctored = copy.deepcopy(report)
    doctored["cells"]["fig10"]["events_per_s"] *= 100.0
    baseline = tmp_path / "BASELINE.json"
    baseline.write_text(json.dumps(doctored))
    before = baseline.read_bytes()
    rc = main(["bench", "fig10", "--scale", "tiny", "--seed", "1",
               "--out", str(baseline), "--trajectory-dir", "none",
               "--compare", str(baseline)])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().err
    assert baseline.read_bytes() == before

    # a cell whose result changes under the profiler fails the run even
    # without --compare, and writes no report
    from repro.sweep import cells

    real_load = cells.load

    def perturbed_load(name):
        fn = real_load(name)

        def cell(scale, seed):
            result = fn(scale, seed)
            if active_sim_capture().profiler is not None:
                result = dict(result, perturbed=True)
            return result

        return cell

    monkeypatch.setattr(cells, "load", perturbed_load)
    perturbed_out = tmp_path / "PERTURBED.json"
    rc = main(["bench", "fig10", "--scale", "tiny", "--seed", "1",
               "--out", str(perturbed_out), "--trajectory-dir", "none"])
    assert rc == 1
    assert "fig10: instrumentation perturbed" in capsys.readouterr().err
    assert not perturbed_out.exists()


def test_cli_bench_accepts_every_registered_scale():
    from repro.cli import build_parser
    from repro.experiments.common import SCALES

    parser = build_parser()
    assert {"large", "huge"} <= set(SCALES)
    for scale in SCALES:
        args = parser.parse_args(["bench", "scale-smoke", "--scale", scale])
        assert args.scale == scale and args.cells == ["scale-smoke"]
    # the default report is not the committed baseline
    assert parser.parse_args(["bench"]).out == "BENCH_current.json"
