"""repro.sweep: spec expansion, cache addressing, execution, aggregation.

The cheap cells here (fig1c at TINY, fig6a) keep the worker-process and
cache round-trip tests fast while still exercising the real experiment
code paths.
"""

import json
import multiprocessing

import pytest

from repro.cluster.cluster import Cluster
from repro.experiments.common import TINY, resolve_scale
from repro.mapreduce.cluster import MapReduceCluster
from repro.obs import MetricsCapture
from repro.sim.engine import Simulator
from repro.sweep import (
    ResultCache,
    SweepSpec,
    aggregate_cells,
    canonical_report,
    cell_key,
    execute_cell,
    flatten,
    run_sweep,
    summarize,
    write_canonical_json,
)
from repro.sweep import cells as cell_registry
from repro.workloads.specs import make_job

CHEAP_PARAMS = {"parts": "fig1c", "sizes_gb": 1.0}


def cheap_spec(seeds=(1,), figures=("fig01",)):
    return SweepSpec(
        figures=figures, scales=("tiny",), seeds=seeds, params=CHEAP_PARAMS
    )


# ----------------------------------------------------------------------
# spec + registry
# ----------------------------------------------------------------------
def test_spec_expands_grid_with_seeds_fastest():
    spec = SweepSpec(
        figures=("fig01",),
        scales=("tiny", "small"),
        seeds=(1, 2),
        params={"parts": "fig1c"},
    )
    cells = spec.cells()
    assert [(c.scale, c.seed) for c in cells] == [
        ("tiny", 1),
        ("tiny", 2),
        ("small", 1),
        ("small", 2),
    ]
    assert all(c.figure == "fig01" for c in cells)


def test_spec_param_axis_expands_product():
    spec = SweepSpec(
        figures=("fig01",),
        scales=("tiny",),
        seeds=(7,),
        params={"parts": "fig1c", "sizes_gb": [1.0, 2.0]},
    )
    sizes = [dict(c.params)["sizes_gb"] for c in spec.cells()]
    assert sizes == [1.0, 2.0]


def test_spec_rejects_unknown_figure_and_scale():
    with pytest.raises(KeyError):
        SweepSpec(figures=("fig99",))
    with pytest.raises(KeyError):
        SweepSpec(figures=("fig01",), scales=("galactic",))


def test_figure_names_case_insensitive():
    assert cell_registry.resolve("FIG8") == "fig08"
    assert cell_registry.resolve("Fig08") == "fig08"
    assert resolve_scale("TINY") is TINY


def test_cell_key_stable_and_param_order_independent():
    spec = cheap_spec()
    config = spec.cells()[0].config()
    key = cell_key(config)
    assert key == cell_key(json.loads(json.dumps(config)))
    assert len(key) == 64
    # differing seed -> different address
    other = dict(config, seed=config["seed"] + 1)
    assert cell_key(other) != key
    # version participates in the address
    assert cell_key(config, version="0.0.0-test") != key


# ----------------------------------------------------------------------
# execution: inline == worker == cache, byte for byte
# ----------------------------------------------------------------------
def test_worker_process_matches_inline_byte_for_byte(tmp_path):
    spec = cheap_spec(seeds=(1, 2))
    configs = [c.config() for c in spec.cells()]
    inline = [execute_cell(cfg) for cfg in configs]
    report = run_sweep(spec, jobs=2, cache=ResultCache(tmp_path / "c"))
    assert report["totals"] == dict(
        report["totals"], cells=2, executed=2, cache_hits=0
    )
    for mine, theirs in zip(inline, report["cells"]):
        for field in ("result", "metrics", "figure", "scale", "seed", "params"):
            assert json.dumps(mine[field], sort_keys=True) == json.dumps(
                theirs[field], sort_keys=True
            )


def test_second_sweep_is_full_cache_hit(tmp_path):
    cache = ResultCache(tmp_path / "c")
    spec = cheap_spec(seeds=(1, 2))
    first = run_sweep(spec, cache=cache)
    assert first["totals"]["cache_hits"] == 0
    second = run_sweep(spec, cache=cache)
    assert second["totals"]["cache_hits"] == 2
    assert second["totals"]["executed"] == 0
    assert all(c["cache_hit"] for c in second["cells"])
    for a, b in zip(first["cells"], second["cells"]):
        assert json.dumps(a["result"], sort_keys=True) == json.dumps(
            b["result"], sort_keys=True
        )
        assert a["key"] == b["key"]


def test_no_cache_forces_reexecution(tmp_path):
    cache = ResultCache(tmp_path / "c")
    spec = cheap_spec()
    run_sweep(spec, cache=cache)
    report = run_sweep(spec, cache=cache, use_cache=False)
    assert report["totals"]["executed"] == 1
    assert report["totals"]["cache_hits"] == 0


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "c")
    spec = cheap_spec()
    report = run_sweep(spec, cache=cache)
    path = cache.path_for(report["cells"][0]["key"])
    path.write_text("{not json", encoding="utf-8")
    again = run_sweep(spec, cache=cache)
    assert again["totals"]["executed"] == 1
    # the entry was repaired
    assert json.loads(path.read_text(encoding="utf-8"))


def test_corrupt_cache_entry_is_quarantined_for_postmortem(tmp_path):
    cache = ResultCache(tmp_path / "c")
    key = "ab" + "0" * 62
    cache.put(key, {"result": {"x": 1}})
    path = cache.path_for(key)
    path.write_text("{torn write", encoding="utf-8")
    assert cache.get(key) is None
    assert cache.quarantined == 1
    # the evidence survives next to where the entry lived
    corrupt = path.with_suffix(".corrupt")
    assert corrupt.read_text(encoding="utf-8") == "{torn write"
    assert not path.exists()
    # a non-dict document is quarantined too
    path.write_text("[1, 2]", encoding="utf-8")
    assert cache.get(key) is None
    assert cache.quarantined == 2
    # the slot is reusable after repair
    cache.put(key, {"result": {"x": 2}})
    assert cache.get(key) == {"result": {"x": 2}}


def test_interrupted_sweep_resumes_from_the_cache(tmp_path, monkeypatch):
    """A sweep that dies mid-study loses only the cell that raised: the
    cells before it are cached, the rerun executes that cell alone, and
    its canonical report is the uninterrupted sweep's."""
    spec = cheap_spec(seeds=(1, 2, 3))
    real_load = cell_registry.load
    raised = []

    def load(name):
        run = real_load(name)

        def cell(scale, seed, **params):
            if seed == 3 and not raised:
                raised.append(seed)
                raise RuntimeError("interrupted")
            return run(scale, seed, **params)

        return cell

    monkeypatch.setattr(cell_registry, "load", load)
    cache = ResultCache(tmp_path / "c")
    with pytest.raises(RuntimeError, match="interrupted"):
        run_sweep(spec, jobs=1, cache=cache)
    keys = [cell_key(c.config()) for c in spec.cells()]
    assert [cache.get(key) is not None for key in keys] == [True, True, False]
    resumed = run_sweep(spec, jobs=1, cache=cache)
    assert [c["cache_hit"] for c in resumed["cells"]] == [True, True, False]
    assert resumed["totals"]["executed"] == 1
    fresh = run_sweep(spec, jobs=1, cache=ResultCache(tmp_path / "fresh"))
    assert json.dumps(canonical_report(resumed), sort_keys=True) == json.dumps(
        canonical_report(fresh), sort_keys=True
    )


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched cell reaches the workers only through fork",
)
def test_parallel_sweep_keeps_the_cells_that_finish_after_a_failure(
    tmp_path, monkeypatch
):
    """At ``jobs=2`` a cell that raises loses only itself: the pool
    drains, every other cell reaches the cache, the failure is reported
    and raised afterwards, and a rerun executes the failed cell alone."""
    spec = cheap_spec(seeds=tuple(range(1, 9)))
    real_load = cell_registry.load

    def load(name):
        run = real_load(name)

        def cell(scale, seed, **params):
            if seed == 1:
                raise RuntimeError("cell failed")
            return run(scale, seed, **params)

        return cell

    # the workers are forked after the patch, so they run the faulty cell
    monkeypatch.setattr(cell_registry, "load", load)
    cache = ResultCache(tmp_path / "c")
    lines = []
    with pytest.raises(RuntimeError, match="cell failed"):
        run_sweep(spec, jobs=2, cache=cache, progress=lines.append)
    keys = [cell_key(c.config()) for c in spec.cells()]
    assert [cache.get(key) is not None for key in keys] == [False] + [True] * 7
    assert len(lines) == 8
    assert [line for line in lines if "failed" in line] == [
        f"{spec.cells()[0].label()}  failed: RuntimeError('cell failed')"
    ]
    monkeypatch.setattr(cell_registry, "load", real_load)
    resumed = run_sweep(spec, jobs=2, cache=cache)
    assert [c["cache_hit"] for c in resumed["cells"]] == [False] + [True] * 7
    assert resumed["totals"]["executed"] == 1


def test_cell_key_salted_with_cache_version(monkeypatch):
    config = cheap_spec().cells()[0].config()
    key = cell_key(config)
    # the implicit salt is exactly ResultCache.VERSION
    assert key == cell_key(config, version=ResultCache.VERSION)
    # a schema/version bump re-addresses every cell
    monkeypatch.setattr(ResultCache, "VERSION", "repro.sweep/999+0.0.0")
    assert cell_key(config) != key
    assert cell_key(config) == cell_key(config, version=ResultCache.VERSION)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def test_flatten_dotted_paths_skip_non_numeric():
    flat = flatten({"a": {"b": 1, "s": "x", "flag": True}, "l": [2.0, {"c": 3}]})
    assert flat == {"a.b": 1.0, "l.0": 2.0, "l.1.c": 3.0}


def test_summarize_identical_values_have_zero_spread():
    stats = summarize([4.0, 4.0, 4.0], path="t")
    assert stats["mean"] == 4.0
    assert stats["stdev"] == 0.0
    assert stats["p50"] == stats["p95"] == 4.0
    assert stats["ci95_lo"] == stats["ci95_hi"] == 4.0


def test_summarize_is_deterministic():
    values = [1.0, 2.0, 4.0, 8.0]
    assert summarize(values, path="x") == summarize(values, path="x")
    assert 1.0 <= summarize(values, path="x")["ci95_lo"] <= 8.0


def test_aggregate_groups_across_seeds():
    cells = [
        {
            "figure": "f",
            "scale": "tiny",
            "seed": s,
            "params": {"k": 1},
            "result": {"m": float(s)},
            "metrics": {"counters": {"evt": 10 * s}},
            "wall_s": 0.5,
        }
        for s in (3, 1, 2)
    ]
    groups = aggregate_cells(cells)
    assert len(groups) == 1
    g = groups[0]
    assert g["seeds"] == [1, 2, 3]
    assert g["metrics"]["m"]["n"] == 3
    assert g["metrics"]["m"]["mean"] == pytest.approx(2.0)
    assert g["obs"]["evt"]["mean"] == pytest.approx(20.0)


# ----------------------------------------------------------------------
# obs capture scoping (satellite: no cross-cell contamination)
# ----------------------------------------------------------------------
def test_metrics_capture_scopes_registries():
    with MetricsCapture() as outer:
        Simulator(seed=1).obs.metrics.counter("a").inc(5)
        with MetricsCapture() as inner:
            Simulator(seed=2).obs.metrics.counter("a").inc(7)
        Simulator(seed=3).obs.metrics.counter("b").inc(1)
    snap_outer = outer.combined_snapshot()
    snap_inner = inner.combined_snapshot()
    assert snap_inner["counters"] == {"a": 7}
    assert snap_inner["simulators"] == 1
    # inner cell's registries never leak into the outer capture
    assert snap_outer["counters"] == {"a": 5, "b": 1}
    assert snap_outer["simulators"] == 2


# ----------------------------------------------------------------------
# jobtracker.on_complete (satellite: public completion API)
# ----------------------------------------------------------------------
def build_mr(n=4, seed=11):
    sim = Simulator(seed=seed)
    cluster = Cluster.native(sim, n)
    mr = MapReduceCluster(sim, cluster.fabric, cluster.native_contexts())
    return sim, mr


def test_on_complete_fires_and_chains():
    sim, mr = build_mr()
    calls = []
    job = mr.submit(
        make_job("Sort", input_gb=0.2, num_reducers=2),
        on_complete=lambda j: calls.append("submit"),
    )
    mr.jt.on_complete(job.job_id, lambda j: calls.append("first"))
    mr.jt.on_complete(job.job_id, lambda j: calls.append("second"))
    sim.run(until=5000.0)
    mr.jt.shutdown()
    assert job.done
    assert calls == ["submit", "first", "second"]


def test_on_complete_after_finish_fires_immediately():
    sim, mr = build_mr()
    job = mr.submit(make_job("Sort", input_gb=0.2, num_reducers=2))
    sim.run(until=5000.0)
    mr.jt.shutdown()
    assert job.done
    seen = []
    mr.jt.on_complete(job.job_id, seen.append)
    assert seen == [job]


def test_on_complete_unknown_job_raises():
    _, mr = build_mr()
    with pytest.raises(KeyError):
        mr.jt.on_complete(12345, lambda j: None)


# ----------------------------------------------------------------------
# blame sweeps (critical-path totals per cell, aggregated per group)
# ----------------------------------------------------------------------
def test_blame_flag_keeps_existing_cache_keys():
    plain = cheap_spec().cells()[0]
    assert "blame" not in plain.config()
    blamed = SweepSpec(
        figures=("fig01",), scales=("tiny",), seeds=(1,),
        params=CHEAP_PARAMS, blame=True,
    ).cells()[0]
    assert blamed.config()["blame"] is True
    # blame runs are cached under a different content address
    assert cell_key(blamed.config()) != cell_key(plain.config())
    assert "blame=True" not in plain.label()


def test_execute_cell_attaches_blame_without_perturbing_result():
    from repro.obs.critpath import CATEGORIES

    config = {"figure": "fig10", "scale": "tiny", "seed": 1, "params": {}}
    plain = execute_cell(config)
    assert "blame" not in plain
    blamed = execute_cell(dict(config, blame=True))
    assert json.dumps(plain["result"], sort_keys=True) == json.dumps(
        blamed["result"], sort_keys=True
    )
    blame = blamed["blame"]
    assert blame["jobs"] >= 1
    assert set(blame["blame_s"]) == set(CATEGORIES)
    assert sum(blame["blame_s"].values()) == pytest.approx(
        blame["makespan_s"], abs=1e-6
    )


def test_aggregate_summarizes_blame_and_wall_time():
    def cell(seed):
        return {
            "figure": "f", "scale": "tiny", "seed": seed, "params": {},
            "result": {"m": 1.0},
            "metrics": {"counters": {}},
            "wall_s": float(seed),
            "blame": {
                "jobs": 2,
                "makespan_s": 10.0 * seed,
                "blame_s": {"compute": 8.0 * seed, "shuffle_wait": 2.0 * seed},
                "blame_pct": {"compute": 80.0, "shuffle_wait": 20.0},
            },
        }

    (group,) = aggregate_cells([cell(1), cell(2)])
    assert group["wall_s"]["mean"] == pytest.approx(1.5)
    assert group["wall_s"]["p95"] > 0
    assert group["blame"]["blame_s.compute"]["mean"] == pytest.approx(12.0)
    assert group["blame"]["blame_pct.shuffle_wait"]["mean"] == pytest.approx(20.0)
    assert group["blame"]["jobs"]["n"] == 2
    # groups without blame cells carry no blame key
    plain = dict(cell(1))
    plain.pop("blame")
    (bare,) = aggregate_cells([plain])
    assert "blame" not in bare


def test_run_sweep_with_blame_propagates_to_groups(tmp_path):
    spec = SweepSpec(figures=("fig10",), scales=("tiny",), seeds=(1, 2),
                     blame=True)
    report = run_sweep(spec, cache=ResultCache(tmp_path / "c"))
    assert report["spec"]["blame"] is True
    for cell in report["cells"]:
        assert cell["blame"]["jobs"] >= 1
    (group,) = report["groups"]
    assert group["blame"]["blame_s.compute"]["n"] == 2
    # cached replay returns the blame data byte-for-byte
    again = run_sweep(spec, cache=ResultCache(tmp_path / "c"))
    assert again["totals"]["cache_hits"] == 2
    assert json.dumps(again["cells"][0]["blame"], sort_keys=True) == json.dumps(
        report["cells"][0]["blame"], sort_keys=True
    )


# ----------------------------------------------------------------------
# spec-order determinism + the canonical projection
# ----------------------------------------------------------------------
def test_parallel_sweep_keeps_spec_order_and_canonical_bytes(tmp_path):
    spec = cheap_spec(seeds=(1, 2, 3))
    serial = run_sweep(spec, jobs=1, cache=ResultCache(tmp_path / "a"))
    parallel = run_sweep(spec, jobs=3, cache=ResultCache(tmp_path / "b"))
    # the cell list is in spec grid order regardless of which worker
    # process finished first
    want = [(c.figure, c.scale, c.seed) for c in spec.cells()]
    for report in (serial, parallel):
        got = [(c["figure"], c["scale"], c["seed"]) for c in report["cells"]]
        assert got == want
    assert json.dumps(canonical_report(serial), sort_keys=True) == json.dumps(
        canonical_report(parallel), sort_keys=True
    )


def test_canonical_report_strips_execution_accidents(tmp_path):
    spec = cheap_spec(seeds=(1, 2))
    cache = ResultCache(tmp_path / "c")
    fresh = canonical_report(run_sweep(spec, jobs=1, cache=cache))
    assert fresh["schema"] == "repro.sweep/canonical-2"
    assert fresh["totals"] == {"cells": 2}
    for cell in fresh["cells"]:
        assert "wall_s" not in cell and "cache_hit" not in cell
    for group in fresh["groups"]:
        assert "wall_s" not in group
    # a fully-cached rerun (different wall clock, different hit pattern)
    # projects to the same bytes -- including through the file writer
    cached = run_sweep(spec, jobs=1, cache=cache)
    assert cached["totals"]["cache_hits"] == 2
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    write_canonical_json(out_a, cached)
    json.dump(fresh, out_b.open("w"), indent=2, sort_keys=True)
    out_b.open("a").write("\n")
    assert out_a.read_bytes() == out_b.read_bytes()


# ----------------------------------------------------------------------
# the command line: `repro sweep` is the one shell entry for a cell
# ----------------------------------------------------------------------
def _sweep_cli(tmp_path, *argv):
    from repro.cli import main

    out = tmp_path / "report.json"
    rc = main(["sweep", *argv, "--scale", "tiny", "--seeds", "1",
               "--cache-dir", "none", "--out", str(out)])
    return rc, (json.loads(out.read_text()) if rc == 0 else None)


def test_cli_sweep_prints_every_metric(tmp_path, capsys):
    rc, report = _sweep_cli(tmp_path, "fig09")
    assert rc == 0
    metrics = report["groups"][0]["metrics"]
    assert len(metrics) == 63
    printed = {line.split()[0] for line in capsys.readouterr().out.splitlines()
               if line.strip()}
    assert set(metrics) <= printed, sorted(set(metrics) - printed)


def test_cli_sweep_json_list_param_keeps_commas(tmp_path):
    # a comma-split body would make "nic=0.01" a fault spec of its own
    mix = "poisson:node=0.005,nic=0.01"
    rc, report = _sweep_cli(tmp_path, "chaos", "--param", f'faults=["{mix}"]',
                            "--param", "deployments=native")
    assert rc == 0
    (cell,) = report["cells"]
    assert cell["params"]["faults"] == mix
    kinds = {f["kind"] for f in cell["result"]["native"]["schedule"]["faults"]}
    assert "nic_degrade" in kinds, kinds


def test_cli_sweep_unknown_cell(tmp_path, capsys):
    rc, _ = _sweep_cli(tmp_path, "fig999")
    assert rc == 2
    assert "unknown sweep figure 'fig999'" in capsys.readouterr().err
    # a usage error exits 2 too; 1 means a cell raised
    rc, _ = _sweep_cli(tmp_path, "fig10", "--param", "parts")
    assert rc == 2
    assert "bad --param 'parts'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, name, figure",
    [
        (("fig10", "--param", "bogus=1"), "bogus", "fig10"),
        # the axes are set by --scale(s) and --seeds, never as a parameter
        (("fig10", "--param", "seed=3"), "seed", "fig10"),
        # fabric takes `waves`, fig10 does not: every figure is checked
        (("fig10", "fabric", "--param", "waves=2"), "waves", "fig10"),
    ],
    ids=["unknown", "axis", "another-figures-param"],
)
def test_cli_sweep_rejects_an_unknown_param_before_any_cell_runs(
    tmp_path, capsys, monkeypatch, argv, name, figure
):
    import repro.sweep.runner as runner

    def execute_cell(config):
        raise AssertionError(f"a cell ran: {config}")

    monkeypatch.setattr(runner, "execute_cell", execute_cell)
    rc, _ = _sweep_cli(tmp_path, *argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert f"'{name}'" in err and figure in err, err
