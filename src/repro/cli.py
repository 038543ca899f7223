"""Command-line interface: run jobs, figures and profiling from a shell.

Examples::

    python -m repro list
    python -m repro run Sort --cluster hybrid --pms 8 --input-gb 2
    python -m repro figure fig1a --scale small
    python -m repro figure headline
    python -m repro profile Sort --sizes 1 2 3 --cluster-size 4

Every command is deterministic for a given ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro.metrics.report import format_series, format_table


# ----------------------------------------------------------------------
# figure registry
# ----------------------------------------------------------------------
def _scale(name: str):
    from repro.experiments import common

    return common.resolve_scale(name)


def _fig1a(scale, seed):
    from repro.experiments.fig01_virt_overheads import fig1a

    result = fig1a(scale, seed=seed)
    rows = [[b, s[1], s[2], s[4]] for b, s in result.items()]
    return format_table(["benchmark", "1-VM", "2-VM", "4-VM"], rows,
                        title="% JCT increase over native")


def _fig1c(scale, seed):
    from repro.experiments.fig01_virt_overheads import fig1c

    result = fig1c(scale, seed=seed)
    rows = [[f"{gb:g}GB", m["r_io"], m["w_io"], m["r_tput"], m["w_tput"]]
            for gb, m in result.items()]
    return format_table(["data", "R-IO", "W-IO", "R-Tput", "W-Tput"], rows,
                        title="HDFS virtual/native")


def _fig2d(scale, seed):
    from repro.experiments.fig02_deployment import fig2d, fig2d_mean_gain_pct

    result = fig2d(scale, seed=seed)
    rows = [[b, v] for b, v in result.items()]
    return format_table(
        ["benchmark", "split/combined"], rows,
        title=f"split architecture (mean gain {fig2d_mean_gain_pct(result):.1f}%)",
    )


def _fig8c(scale, seed):
    from repro.experiments.fig08_hybridmr_benefits import fig8c, summarize_reduction

    result = fig8c(scale, seed=seed)
    rows = [[b, r["cpu"], r["memory"], r["io"], r["cpu+memory+io"]]
            for b, r in result.items()]
    avg, best = summarize_reduction(result, "cpu+memory+io")
    return format_table(
        ["benchmark", "cpu", "memory", "io", "all"], rows,
        title=f"% JCT reduction, concurrent jobs (avg {avg:.1f}%, max {best:.1f}%)",
    )


def _fig9(scale, seed):
    from repro.experiments.fig09_cross_platform import fig9b_9c

    result = fig9b_9c(scale, seed=seed)
    rows = [[m["design"], m["perf_per_energy"], m["energy"], m["servers"],
             m["utilization"]] for m in result["metrics"]]
    return format_table(
        ["design", "perf/energy", "energy", "servers", "utilization"], rows,
        title="cross-platform design metrics (max-normalized)",
    )


def _headline(scale, seed):
    from repro.experiments.headline import PAPER_HEADLINE, headline_numbers

    measured = headline_numbers(scale, seed=seed)
    rows = [[k, measured[k], PAPER_HEADLINE[k]] for k in PAPER_HEADLINE]
    return format_table(["claim", "measured_%", "paper_%"], rows,
                        title="headline claims")


def _fig2a(scale, seed):
    from repro.experiments.fig02_deployment import fig2a

    result = fig2a(scale, seed=seed)
    rows = [[f"{gb:g}GB", s["same_host"], s["cross_host"]] for gb, s in result.items()]
    return format_table(["data", "same_host", "cross_host"], rows,
                        title="Sort JCT (s): Same-Host vs Cross-Host")


def _fig2b(scale, seed):
    from repro.experiments.fig02_deployment import fig2b

    result = fig2b(scale, seed=seed)
    rows = [[f"{gb:g}GB", s["V1-1M-1R"], s["V2-2M-4R"], s["V4-4M-6R"]]
            for gb, s in result.items()]
    return format_table(["data", "V1", "V2", "V4"], rows,
                        title="Kmeans JCT normalized to V1")


def _fig2c(scale, seed):
    from repro.experiments.fig02_deployment import fig2c

    result = fig2c(scale, seed=seed)
    return format_table(["benchmark", "dom0/native"],
                        [[b, v] for b, v in result.items()],
                        title="Dom-0 vs native")


def _fig5d(scale, seed):
    from repro.experiments.fig05_profiling_curves import fig5d, linearity_r2

    result = fig5d(seed=seed)
    lines = [
        format_series(f"C{n}", series) + f"  [R2={linearity_r2(series):.3f}]"
        for n, series in result.items()
    ]
    return "Sort JCT (s) vs data size per cluster size\n" + "\n".join(lines)


def _fig6a(scale, seed):
    from repro.experiments.fig06_models import fig6a

    result = fig6a()
    return (
        f"profiling error: mean {100 * result['mean_error']:.1f}% / "
        f"std {100 * result['std_error']:.1f}% (paper: 10.8% / 9.7%)"
    )


def _fig6bc(scale, seed):
    from repro.experiments.fig06_models import fig6b, fig6c

    lines = ["CPU interference (normalized JCT):"]
    lines += [f"  {format_series(k, v)}" for k, v in fig6b(seed=seed).items()]
    lines.append("I/O interference (normalized JCT):")
    lines += [f"  {format_series(k, v)}" for k, v in fig6c(seed=seed).items()]
    return "\n".join(lines)


def _fig8a(scale, seed):
    from repro.experiments.fig08_hybridmr_benefits import fig8a

    result = fig8a(scale)
    rows = [[m, g["transactional_gain"], g["batch_gain"]] for m, g in result.items()]
    return format_table(["mix", "transactional", "batch"], rows,
                        title="Phase I gain over random placement")


def _fig8b(scale, seed):
    from repro.experiments.fig08_hybridmr_benefits import fig8b, summarize_reduction

    result = fig8b(scale, seed=seed)
    rows = [[b, r["cpu"], r["memory"], r["io"], r["cpu+memory+io"]]
            for b, r in result.items()]
    avg, best = summarize_reduction(result, "cpu+memory+io")
    return format_table(["benchmark", "cpu", "memory", "io", "all"], rows,
                        title=f"single-job %JCT reduction (avg {avg:.1f}%, max {best:.1f}%)")


def _fig8d(scale, seed):
    from repro.experiments.fig08_hybridmr_benefits import fig8d

    result = fig8d(seed=seed)
    return "RUBiS latency (ms) vs clients\n" + "\n".join(
        format_series(k, v) for k, v in result.items()
    )


def _fig10(scale, seed):
    from repro.experiments.fig10_migration import fig10bc, migration_summary

    summary = migration_summary(fig10bc(seed=seed))
    rows = [[k, s["mean_migration_s"], s["mean_downtime_ms"]]
            for k, s in summary.items()]
    return format_table(["config", "mean_migration_s", "mean_downtime_ms"], rows,
                        title="live migration costs")


def _fig11(scale, seed):
    from repro.experiments.fig11_tradeoff import best_and_worst, fig11

    results = fig11(scale, seed=seed)
    rows = [[r.label, r.n_native_pms, r.n_vms, r.perf_per_energy] for r in results]
    best, worst = best_and_worst(results)
    return format_table(
        ["config", "native_pms", "vms", "perf_per_energy"], rows,
        title=f"configuration sweep (best {best.label}, worst {worst.label})",
    )


FIGURES: Dict[str, Callable] = {
    "fig1a": _fig1a,
    "fig1c": _fig1c,
    "fig2a": _fig2a,
    "fig2b": _fig2b,
    "fig2c": _fig2c,
    "fig2d": _fig2d,
    "fig5d": _fig5d,
    "fig6a": _fig6a,
    "fig6bc": _fig6bc,
    "fig8a": _fig8a,
    "fig8b": _fig8b,
    "fig8c": _fig8c,
    "fig8d": _fig8d,
    "fig9": _fig9,
    "fig10": _fig10,
    "fig11": _fig11,
    "headline": _headline,
}


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def cmd_list(args) -> int:
    from repro.workloads.specs import ALL_BENCHMARKS, PAPER_INPUT_GB

    print("benchmarks:")
    for bench in ALL_BENCHMARKS:
        print(
            f"  {bench.name:9s} class={bench.resource_class:5s} "
            f"paper input {PAPER_INPUT_GB[bench.name]:g} GB"
        )
    print("\nfigures (repro figure <id>):")
    for fig in FIGURES:
        print(f"  {fig}")
    from repro.sweep import cell_names

    print("\nsweep cells (repro sweep <cell> --seeds ...):")
    print("  " + " ".join(cell_names()))
    from repro.zoo import policy_names, workload_names

    print("\nscheduler zoo (repro zoo --policies ...):")
    print("  policies:  " + " ".join(policy_names()))
    print("  workloads: " + " ".join(workload_names()))
    print("\nthe full per-figure harness lives in benchmarks/ "
          "(pytest benchmarks/ --benchmark-only -s)")
    return 0


def cmd_run(args) -> int:
    from repro.cluster.cluster import Cluster
    from repro.mapreduce.cluster import MapReduceCluster
    from repro.sim.engine import Simulator
    from repro.workloads.specs import make_job

    sim = Simulator(seed=args.seed)
    if args.trace or args.events_out or args.metrics_out or args.blame_out:
        sim.obs.enable_tracing()
    if args.cluster == "native":
        cluster = Cluster.native(sim, args.pms)
        contexts = cluster.native_contexts()
    elif args.cluster == "virtual":
        cluster = Cluster.virtual(sim, args.pms, args.vms_per_pm)
        contexts = list(cluster.vms)
    else:
        cluster = Cluster.hybrid(sim, args.pms // 2, args.pms - args.pms // 2,
                                 args.vms_per_pm)
        contexts = cluster.all_contexts()
    mr = MapReduceCluster(sim, cluster.fabric, contexts)
    meter = cluster.start_metering()
    spec = make_job(args.benchmark, input_gb=args.input_gb,
                    num_reducers=args.reducers)
    job = mr.run_job(spec)
    meter.stop()
    print(
        f"{args.benchmark} ({spec.input_gb:g} GB) on {args.cluster} "
        f"({len(contexts)} nodes / {cluster.powered_servers()} servers)"
    )
    print(f"  JCT          {job.jct:10.1f} s")
    print(f"  map phase    {job.map_phase_time:10.1f} s "
          f"({len(job.map_tasks)} tasks)")
    print(f"  reduce phase {job.reduce_phase_time:10.1f} s "
          f"({len(job.reduce_tasks)} tasks)")
    print(f"  energy       {meter.energy_kwh:10.4f} kWh")
    print(f"  utilization  {cluster.mean_cpu_utilization():10.2f}")
    if args.trace or args.events_out or args.metrics_out:
        from repro.experiments.common import write_run_artifacts

        for path in write_run_artifacts(
            sim, args.trace, args.events_out, args.metrics_out
        ):
            print(f"  wrote        {path}")
    if args.blame_out:
        from repro.obs.critpath import (
            blame_from_obs,
            format_blame,
            write_blame_json,
        )

        report = blame_from_obs(sim.obs)
        print()
        print(format_blame(report))
        write_blame_json(args.blame_out, report)
        print(f"  wrote        {args.blame_out}")
    return 0


def cmd_trace(args) -> int:
    from repro.obs.export import (
        chrome_trace,
        read_jsonl,
        summarize_events,
        validate_chrome_trace,
    )

    if args.follow:
        if not args.file.endswith(".jsonl"):
            print("--follow only applies to .jsonl event/frame logs",
                  file=sys.stderr)
            return 2
        from repro.obs.live import _format_tail_line, tail_jsonl

        try:
            for event in tail_jsonl(
                args.file, follow=True, idle_timeout_s=args.idle_timeout
            ):
                print(_format_tail_line(event), flush=True)
        except KeyboardInterrupt:
            pass
        return 0
    if args.file.endswith(".jsonl"):
        events = read_jsonl(args.file)
        print(summarize_events(events))
        if args.top:
            from repro.obs.export import top_spans

            print()
            print(top_spans(events, args.top))
        blame_report = None
        if args.blame or args.blame_out:
            from repro.obs.critpath import (
                build_blame,
                format_blame,
                write_blame_json,
            )

            blame_report = build_blame(events)
            if args.blame:
                print()
                print(format_blame(blame_report))
            if args.blame_out:
                write_blame_json(args.blame_out, blame_report)
                print(f"wrote {args.blame_out}")
        if args.chrome:
            import json

            doc = chrome_trace(events)
            if blame_report is not None:
                from repro.obs.critpath import extend_chrome_trace

                extend_chrome_trace(doc, blame_report)
            validate_chrome_trace(doc)
            with open(args.chrome, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            print(f"wrote {args.chrome} ({len(doc['traceEvents'])} events)")
        return 0
    # a Chrome trace JSON: validate it and report the event count
    import json

    with open(args.file, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    n = validate_chrome_trace(doc)
    print(f"{args.file}: valid Chrome trace, {n} events")
    if args.chrome or args.top or args.blame or args.blame_out:
        print("--chrome/--top/--blame only apply to .jsonl event logs",
              file=sys.stderr)
        return 2
    return 0


def cmd_figure(args) -> int:
    # figure ids are case-insensitive, like benchmark names on `run`
    fig_id = args.id.lower()
    if fig_id not in FIGURES:
        print(f"unknown figure {args.id!r}; choose from {', '.join(FIGURES)}",
              file=sys.stderr)
        return 2
    print(FIGURES[fig_id](_scale(args.scale), args.seed))
    return 0


def _parse_sweep_params(entries) -> dict:
    """``key=v1,v2`` strings -> {key: [v1, v2]} with JSON-typed values."""
    import json

    def typed(text: str):
        try:
            return json.loads(text)
        except ValueError:
            return text

    params = {}
    for entry in entries:
        key, sep, body = entry.partition("=")
        if not sep or not key:
            raise SystemExit(f"bad --param {entry!r}; expected KEY=VALUE[,VALUE...]")
        params[key] = [typed(part) for part in body.split(",")]
    return params


def cmd_sweep(args) -> int:
    import json

    from repro.sweep import (
        ResultCache,
        SweepSpec,
        format_report,
        run_sweep,
        write_canonical_json,
    )

    try:
        spec = SweepSpec(
            figures=args.figures,
            scales=args.scales,
            seeds=args.seeds,
            params=_parse_sweep_params(args.param),
            blame=args.blame,
        )
    except (KeyError, ValueError, TypeError) as exc:
        print(exc, file=sys.stderr)
        return 2
    cache = None if args.cache_dir.lower() == "none" else ResultCache(args.cache_dir)
    n = len(spec.cells())
    state = {"done": 0}

    def progress(line: str) -> None:
        state["done"] += 1
        print(f"  [{state['done']}/{n}] {line}")

    report = run_sweep(
        spec,
        jobs=args.jobs,
        cache=cache,
        use_cache=not args.no_cache,
        progress=progress,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(format_report(report))
    print(f"\nwrote {args.out}")
    if args.canonical_out:
        write_canonical_json(args.canonical_out, report)
        print(f"wrote {args.canonical_out} (canonical, cmp-able)")
    return 0


# ----------------------------------------------------------------------
# grid: the distributed sweep service
# ----------------------------------------------------------------------
def cmd_grid_run(args) -> int:
    import json

    from repro.grid import run_grid
    from repro.obs.live import JsonlFrameSink
    from repro.sweep import (
        ResultCache,
        SweepSpec,
        format_report,
        write_canonical_json,
    )

    try:
        spec = SweepSpec(
            figures=args.figures,
            scales=args.scales,
            seeds=args.seeds,
            params=_parse_sweep_params(args.param),
            blame=args.blame,
        )
    except (KeyError, ValueError, TypeError) as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.cache_dir.lower() == "none":
        print("grid needs a result cache: it is the resume/idempotency "
              "substrate (pass a directory for --cache-dir)",
              file=sys.stderr)
        return 2
    if args.resume and args.no_cache:
        print("--resume and --no-cache are contradictory: resume *is* "
              "reading the cache", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir)
    sink = None
    if args.frames_out:
        sink = JsonlFrameSink(args.frames_out)
        print(f"streaming frames to {args.frames_out} "
              f"(watch with: repro serve {args.frames_out} --follow)")
    if args.resume:
        print(f"resuming from cache {args.cache_dir}")
    try:
        report = run_grid(
            spec,
            cache,
            workers=args.workers,
            use_cache=not args.no_cache,
            host=args.host,
            port=args.port,
            max_attempts=args.max_attempts,
            backoff_s=args.backoff,
            heartbeat_s=args.heartbeat,
            heartbeat_timeout_s=args.heartbeat_timeout,
            frame_interval_s=args.frame_interval,
            frame_sink=sink,
            progress=lambda line: print(f"  {line}"),
            kill_worker_after=args.kill_worker_after,
        )
    finally:
        if sink is not None:
            sink.close()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(format_report(report))
    grid = report["grid"]
    print(f"grid: {grid['workers_spawned']} workers "
          f"({grid['workers_lost']} lost, {grid['requeues']} requeues, "
          f"{grid['resumed_from_cache']} resumed from cache)")
    print(f"\nwrote {args.out}")
    if args.canonical_out:
        write_canonical_json(args.canonical_out, report)
        print(f"wrote {args.canonical_out} (canonical, cmp-able)")
    failures = report["failures"]
    if failures:
        for record in failures:
            print(f"FAILED after {record['attempts']} attempts: "
                  f"{record['figure']}/{record['scale']}/"
                  f"seed{record['seed']}: {record['error']}",
                  file=sys.stderr)
        return 1
    return 0


def cmd_grid_worker(args) -> int:
    from repro.grid import parse_address, run_worker

    try:
        host, port = parse_address(args.connect)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        completed = run_worker(
            host, port, worker_id=args.id,
            log=lambda line: print(line, flush=True),
        )
    except ConnectionRefusedError:
        print(f"no coordinator at {args.connect}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130
    print(f"worker done: {completed} cells completed")
    return 0


def cmd_grid_status(args) -> int:
    from repro.obs.live import read_frames

    try:
        frames = [f for f in read_frames(args.frames)
                  if f.get("schema") == "repro.grid/1"]
    except FileNotFoundError:
        print(f"no such frame file: {args.frames}", file=sys.stderr)
        return 2
    if not frames:
        print(f"{args.frames}: no grid frames yet")
        return 0
    last = frames[-1]
    g = last["grid"]
    state = "done" if g.get("done") else "running"
    print(f"study {last['study']} [{state}] at t={last['ts']:.1f}s "
          f"(frame {last['seq']})")
    print(f"  cells        {g['completed']}/{g['cells']} completed "
          f"({g['cache_hits']} cached, {g['failed']} failed)")
    print(f"  in flight    {g['inflight']} running / {g['queued']} queued")
    print(f"  fleet        {g['workers']} workers "
          f"({g['workers_lost']} lost, {g['requeues']} requeues)")
    wall = last.get("wall_s", {})
    if wall.get("n"):
        print(f"  cell wall    mean {wall['mean']:.1f}s / "
              f"p95 {wall['p95']:.1f}s over {wall['n']} cells")
    queue_age = last.get("queue_age")
    if queue_age and queue_age.get("n"):
        print(f"  queue age    p50 {queue_age['p50']:.1f}s / "
              f"p95 {queue_age['p95']:.1f}s / max {queue_age['max']:.1f}s "
              f"over {queue_age['n']} queued")
    for worker in last.get("workers", []):
        liveness = (
            f"beat {worker['beat_age_s']:.1f}s ago" if worker["alive"]
            else ("retired" if worker.get("retired") else "LOST")
        )
        busy = (
            f"on {worker['unit'][:12]}" if worker.get("unit") else "idle"
        )
        rtt = (
            f", rtt {worker['rtt_ms']:.1f}ms"
            if worker.get("rtt_ms") is not None else ""
        )
        rate = (
            f", {worker['events_per_s']:,.0f} ev/s"
            if worker.get("events_per_s") else ""
        )
        print(f"  worker {worker['id']:<10} {liveness:<16} {busy:<16} "
              f"{worker['cells']} cells, "
              f"{worker['retries_charged']} retries charged"
              f"{rate}{rtt}")
    for group in last.get("groups", []):
        params = group["params"]
        suffix = f" {params}" if params else ""
        shown = list(group["metrics"].items())[: args.metrics]
        for path, stats in shown:
            print(f"  {group['figure']}@{group['scale']}{suffix} "
                  f"{path}: mean {stats['mean']:.3f} "
                  f"p50 {stats['p50']:.3f} p95 {stats['p95']:.3f} "
                  f"(n={stats['n']})")
    return 0


def cmd_chaos(args) -> int:
    import json

    from repro.experiments.fig08_faults import run as run_faults

    if args.figure != "fig08":
        print(f"unknown chaos figure {args.figure!r}; only 'fig08' exists",
              file=sys.stderr)
        return 2
    result = run_faults(
        scale=_scale(args.scale),
        seed=args.seed,
        faults=args.faults,
        mttr=args.mttr,
        severity=args.severity,
        deployments=args.deployments,
        waves=args.waves,
    )
    rows = []
    for kind in args.deployments:
        entry = result[kind]
        report = entry.get("report", {})
        rows.append([
            kind,
            round(entry["baseline_makespan_s"], 1),
            round(entry["faulted_makespan_s"], 1),
            round(entry["slowdown_pct"], 1),
            report.get("faults_injected", 0),
            round(report.get("availability", 1.0), 4),
        ])
    print(format_table(
        ["deployment", "baseline_s", "faulted_s", "slowdown_%",
         "faults", "availability"],
        rows,
        title=f"completion time under faults ({args.faults})",
    ))
    print(f"total faults injected: {result['total_faults_injected']}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    print(f"wrote {args.out}")
    return 0


def cmd_bench(args) -> int:
    import json

    from repro.obs.bench import (
        DEFAULT_CELLS,
        archive_report,
        compare_reports,
        consistency_failures,
        format_bench,
        format_compare_table,
        run_bench,
        write_bench_json,
    )
    from repro.obs.prof import format_profile, write_collapsed, write_speedscope

    # read the baseline before anything is written: --out may name it
    baseline = None
    if args.compare:
        with open(args.compare, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
    cells = args.cells or list(DEFAULT_CELLS)
    report = run_bench(
        cells,
        scale=args.scale,
        seed=args.seed,
        progress=lambda line: print(f"  {line}"),
        repeats=args.repeats,
        trace_malloc=args.trace_malloc,
    )
    for cell in report["cells"].values():
        print()
        print(format_profile(cell))
    print()
    print(format_bench(report))
    if args.flame:
        lines = write_collapsed(args.flame, report)
        print(f"wrote {args.flame} ({lines} stacks; feed to flamegraph.pl "
              f"or inferno)")
    if args.speedscope:
        samples = write_speedscope(args.speedscope, report)
        print(f"wrote {args.speedscope} ({samples} samples; open at "
              f"https://speedscope.app)")
    if args.trajectory_dir and args.trajectory_dir != "none":
        archived = archive_report(report, args.trajectory_dir)
        print(f"archived {archived}")
    if baseline is None:
        failures, notes = consistency_failures(report), []
    else:
        print()
        print(format_compare_table(baseline, report))
        failures, notes = compare_reports(baseline, report, args.tolerance)
    for note in notes:
        print(f"note: {note}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if args.out:
            print(f"not writing {args.out}: the run failed", file=sys.stderr)
        return 1
    if args.out:
        write_bench_json(args.out, report)
        print(f"wrote {args.out}")
    if baseline is not None:
        print(f"bench OK vs {args.compare} (tolerance {args.tolerance:.0%})")
    return 0


def cmd_live(args) -> int:
    from repro.experiments.live import run as run_live

    result = run_live(
        scale=_scale(args.scale),
        seed=args.seed,
        horizon_s=args.horizon,
        mean_interarrival_s=args.mean_interarrival,
        diurnal_period_s=args.diurnal_period,
        diurnal_amplitude=args.diurnal_amplitude,
        interactive_clients=args.clients,
        sample_interval_s=args.sample_interval or None,
        max_active=args.max_active,
        blame=args.blame,
        frames_out=args.frames_out or None,
    )
    if result["interrupted"]:
        print("interrupted; summarizing the virtual time reached so far")
    print(f"live run: scale={result['scale']} seed={result['seed']} "
          f"reached {result['reached_s']:.0f}s of {result['horizon_s']:.0f}s")
    print(f"  jobs         {result['completed']} completed / "
          f"{result['submitted']} submitted / {result['arrived']} arrived "
          f"({result['shed']} shed, {result['active_at_end']} still active)")
    print(f"  mean JCT     {result['mean_jct_s']:10.1f} s")
    sla = result["sla"]
    print(f"  latency      p95 {sla['p95_ms']:8.1f} ms over "
          f"{sla['count']} probes ({sla['violations']} SLA violations)")
    print(f"  frames       {result['frames_emitted']} emitted")
    print(f"  digest       {result['digest'][:16]}")
    if args.frames_out:
        print(f"  wrote        {args.frames_out} "
              f"({result['frames_written']} frames)")
        print(f"  next         repro serve {args.frames_out}")
    if args.json_out:
        import json

        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
        print(f"  wrote        {args.json_out}")
    return 0


def cmd_serve(args) -> int:
    import os

    from repro.obs.serve import FrameServer

    if not os.path.exists(args.frames) and not args.follow:
        print(f"no such frame file: {args.frames} "
              "(use --follow to wait for a live run to create it)",
              file=sys.stderr)
        return 2
    server = FrameServer(
        args.frames, host=args.host, port=args.port,
        follow=args.follow, rate=args.rate,
    )
    mode = "following" if args.follow else "replaying"
    print(f"{mode} {args.frames} ({len(server.store)} frames) "
          f"on {server.url} -- Ctrl-C to stop")
    server.serve_forever()
    return 0


def cmd_zoo(args) -> int:
    from repro.zoo import format_study, run_study, write_study_json

    try:
        report = run_study(
            scale=args.scale,
            seeds=args.seeds,
            policies=args.policies or None,
            workloads=args.workloads or None,
        )
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(format_study(report))
    if args.out:
        write_study_json(args.out, report)
        print(f"\nwrote {args.out}")
    return 0


def cmd_profile(args) -> int:
    from repro.core.profiling import JobProfiler

    profiler = JobProfiler(repeats=args.repeats)
    print(f"training {args.benchmark} on a {args.cluster_size}-node cluster:")
    for gb in args.sizes:
        native = profiler.profile(args.benchmark, gb, args.cluster_size, False)
        virtual = profiler.profile(args.benchmark, gb, args.cluster_size, True)
        print(f"  {gb:6.2f} GB  native {native.jct_s:8.1f} s   "
              f"virtual {virtual.jct_s:8.1f} s")
    if args.estimate:
        for gb in args.estimate:
            est = profiler.db.estimate(args.benchmark, True, args.cluster_size, gb)
            print(f"estimate {gb:6.2f} GB virtual: {est.jct_s:8.1f} s "
                  f"({est.method})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments.common import SCALES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="HybridMR reproduction: simulated hybrid data center "
        "MapReduce scheduling (ICDCS 2013)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks and figures").set_defaults(
        func=cmd_list
    )

    run = sub.add_parser("run", help="run one benchmark job")
    run.add_argument("benchmark", help="Twitter|Wcount|PiEst|DistGrep|Sort|Kmeans")
    run.add_argument("--cluster", choices=("native", "virtual", "hybrid"),
                     default="native")
    run.add_argument("--pms", type=int, default=8)
    run.add_argument("--vms-per-pm", type=int, default=2)
    run.add_argument("--input-gb", type=float, default=2.0)
    run.add_argument("--reducers", type=int, default=None)
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--trace", metavar="FILE", default=None,
                     help="write a Chrome trace-event JSON (chrome://tracing)")
    run.add_argument("--events-out", metavar="FILE", default=None,
                     help="write the structured event log as JSONL")
    run.add_argument("--metrics-out", metavar="FILE", default=None,
                     help="write the metrics registry snapshot as JSON")
    run.add_argument("--blame-out", metavar="FILE", default=None,
                     help="write the critical-path blame report as JSON "
                     "(implies tracing)")
    run.set_defaults(func=cmd_run)

    trace = sub.add_parser(
        "trace", help="summarize a .jsonl event log or validate a trace JSON"
    )
    trace.add_argument("file", help="a .jsonl event log or Chrome trace JSON")
    trace.add_argument("--chrome", metavar="FILE", default=None,
                       help="also convert a .jsonl log to Chrome trace JSON "
                       "(with critpath metadata when --blame is given)")
    trace.add_argument("--top", type=int, metavar="N", default=0,
                       help="show the N slowest spans per category")
    trace.add_argument("--blame", action="store_true",
                       help="print the critical-path blame breakdown")
    trace.add_argument("--blame-out", metavar="FILE", default=None,
                       help="write the blame report as canonical JSON")
    trace.add_argument("--follow", "-f", action="store_true",
                       help="tail a .jsonl events/frames file as it is "
                       "written by a live run (Ctrl-C to stop)")
    trace.add_argument("--idle-timeout", type=float, metavar="S", default=None,
                       help="with --follow, exit after S seconds without "
                       "new data (default: follow forever)")
    trace.set_defaults(func=cmd_trace)

    fig = sub.add_parser("figure", help="regenerate one paper figure")
    fig.add_argument("id", help=", ".join(FIGURES))
    fig.add_argument("--scale", choices=("small", "medium", "paper"),
                     default="small")
    fig.add_argument("--seed", type=int, default=7)
    fig.set_defaults(func=cmd_figure)

    sweep = sub.add_parser(
        "sweep",
        help="run a cached, parallel multi-seed experiment sweep",
        description="Expand a (figure x scale x seed x param) grid, run "
        "the cells across worker processes with content-addressed result "
        "caching, and write the cross-seed aggregation as JSON.",
    )
    sweep.add_argument(
        "figures", nargs="+",
        help="experiment cells (fig01, fig02, fig05, fig06, fig08, fig09, "
        "fig10, fig11, headline)",
    )
    sweep.add_argument("--scales", "--scale", nargs="+", default=["small"],
                       help="scales to sweep (tiny|small|medium|paper)")
    sweep.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4])
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = inline)")
    sweep.add_argument("--param", action="append", default=[],
                       metavar="KEY=V1[,V2...]",
                       help="extra cell parameter axis (repeatable); "
                       "values are parsed as JSON where possible")
    sweep.add_argument("--cache-dir", default=".repro-sweep-cache",
                       help="result cache location ('none' disables storage)")
    sweep.add_argument("--blame", action="store_true",
                       help="trace every cell and attach critical-path "
                            "blame totals (cached separately from "
                            "non-blame runs)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="re-execute every cell (fresh results still "
                       "refresh the cache)")
    sweep.add_argument("--out", default="BENCH_sweep.json",
                       help="aggregated report path")
    sweep.add_argument("--canonical-out", metavar="FILE", default=None,
                       help="also write the wall-clock-free canonical "
                       "report (byte-identical across sweep/grid runs "
                       "of the same spec)")
    sweep.set_defaults(func=cmd_sweep)

    grid = sub.add_parser(
        "grid",
        help="distributed sweep service: shard a study across a worker fleet",
        description="Run thousands-of-cell studies across long-lived "
        "worker processes: the coordinator shards a sweep spec into "
        "content-addressed work units, dispatches them over a line-JSON "
        "socket protocol with heartbeats, requeues lost cells with "
        "bounded backed-off retries, streams partial aggregates as "
        "repro.grid/1 frames, and resumes from the result cache after "
        "crashes.  The canonical report is byte-identical to a "
        "single-process `repro sweep` of the same spec.",
    )
    gsub = grid.add_subparsers(dest="grid_command", required=True)

    grun = gsub.add_parser(
        "run", help="run a sharded study with a local worker fleet"
    )
    grun.add_argument("figures", nargs="+",
                      help="experiment cells (same registry as `repro "
                      "sweep`, incl. zoo/chaos/live)")
    grun.add_argument("--scales", "--scale", nargs="+", default=["small"],
                      help="scales to sweep (tiny|small|medium|paper)")
    grun.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4])
    grun.add_argument("--param", action="append", default=[],
                      metavar="KEY=V1[,V2...]",
                      help="extra cell parameter axis (repeatable)")
    grun.add_argument("--blame", action="store_true",
                      help="trace every cell and attach critical-path "
                      "blame totals")
    grun.add_argument("--workers", type=int, default=2,
                      help="worker processes to spawn locally")
    grun.add_argument("--host", default="127.0.0.1",
                      help="coordinator bind address (0.0.0.0 to accept "
                      "workers from other machines)")
    grun.add_argument("--port", type=int, default=0,
                      help="coordinator port (0 = ephemeral)")
    grun.add_argument("--cache-dir", default=".repro-sweep-cache",
                      help="content-addressed result cache (the resume "
                      "and idempotency substrate; shared with `repro "
                      "sweep`)")
    grun.add_argument("--no-cache", action="store_true",
                      help="ignore existing cache entries (fresh results "
                      "still refresh the cache)")
    grun.add_argument("--resume", action="store_true",
                      help="resume a killed study: cells already in the "
                      "cache complete instantly, nothing is re-executed")
    grun.add_argument("--max-attempts", type=int, default=3,
                      help="attempts per cell before it is recorded as "
                      "failed")
    grun.add_argument("--backoff", type=float, default=0.5,
                      help="base requeue backoff in seconds (doubles per "
                      "attempt)")
    grun.add_argument("--heartbeat", type=float, default=2.0,
                      help="worker heartbeat interval in seconds")
    grun.add_argument("--heartbeat-timeout", type=float, default=10.0,
                      help="declare a worker lost after this many "
                      "seconds without a heartbeat")
    grun.add_argument("--frames-out", metavar="FILE", default="",
                      help="stream repro.grid/1 progress frames to this "
                      "JSONL file (render with `repro serve`)")
    grun.add_argument("--frame-interval", type=float, default=1.0,
                      help="wall seconds between progress frames")
    grun.add_argument("--out", default="grid_report.json",
                      help="full study report path")
    grun.add_argument("--canonical-out", metavar="FILE", default=None,
                      help="also write the wall-clock-free canonical "
                      "report (byte-identical to `repro sweep "
                      "--canonical-out` for the same spec)")
    grun.add_argument("--kill-worker-after", type=float, metavar="S",
                      default=None,
                      help="chaos testing hook: SIGKILL the first "
                      "spawned worker after S wall seconds")
    grun.set_defaults(func=cmd_grid_run)

    gworker = gsub.add_parser(
        "worker", help="join a running study as a worker (any machine)"
    )
    gworker.add_argument("--connect", required=True, metavar="HOST:PORT",
                         help="coordinator address printed by `repro "
                         "grid run`")
    gworker.add_argument("--id", default=None,
                         help="worker id (default: w<pid>)")
    gworker.set_defaults(func=cmd_grid_worker)

    gstatus = gsub.add_parser(
        "status", help="summarize a study's progress from its frame file"
    )
    gstatus.add_argument("frames", nargs="?", default="grid_frames.jsonl",
                         help="JSONL frame file written by `repro grid "
                         "run --frames-out`")
    gstatus.add_argument("--metrics", type=int, default=3,
                         help="streaming metric paths to show per group")
    gstatus.set_defaults(func=cmd_grid_status)

    chaos = sub.add_parser(
        "chaos",
        help="run an experiment under injected faults; write a resilience report",
        description="Run the fig08-under-faults cell: the paper benchmarks "
        "on each deployment, fault-free and under a seeded Poisson fault "
        "schedule, reporting availability, recovery times and goodput vs "
        "the fault-free baseline.",
    )
    chaos.add_argument("--figure", default="fig08",
                       help="experiment to run under faults (only fig08)")
    chaos.add_argument("--scale", choices=("tiny", "small", "medium", "paper"),
                       default="tiny")
    chaos.add_argument("--seed", type=int, default=1)
    chaos.add_argument("--faults", default="poisson:node=0.01",
                       metavar="SPEC",
                       help="'none' or 'poisson:<kind>=<rate>,...' with kinds "
                       "node|rack|disk|nic|cpu|straggler|partition")
    chaos.add_argument("--mttr", type=float, default=45.0,
                       help="mean time-to-repair in seconds")
    chaos.add_argument("--severity", type=float, default=0.5,
                       help="capacity fraction removed by degradation faults")
    chaos.add_argument("--deployments", nargs="+",
                       choices=("native", "virtual", "hybrid"),
                       default=["native", "virtual", "hybrid"])
    chaos.add_argument("--waves", type=int, default=2,
                       help="rounds of the benchmark suite per run")
    chaos.add_argument("--out", default="chaos_report.json",
                       help="resilience report path (JSON)")
    chaos.set_defaults(func=cmd_chaos)

    bench = sub.add_parser(
        "bench",
        help="benchmark and profile the simulator; CI regression gate",
        description="Run sweep cells at a pinned scale/seed in three "
        "passes: a bare timing pass (best of --repeats: events/sec), a "
        "profiler pass (per-subsystem self/cumulative wall time and "
        "event counts, hottest callbacks, engine gauges, flamegraph "
        "stacks) and a traced pass (spans, critical-path blame).  All "
        "three must give the same result digest.  Writes a "
        "repro.bench/2 report.  Exits non-zero if a pass perturbed a "
        "result or, with --compare, if any cell's events/sec regressed "
        "beyond the tolerance vs the baseline report; a failed run "
        "writes no --out report.",
    )
    bench.add_argument("cells", nargs="*",
                       help="cells to benchmark (default: headline fig01 "
                       "fig02 fig08 fig10 chaos fabric)")
    bench.add_argument("--scale", choices=tuple(SCALES), default="tiny")
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument("--repeats", type=int, default=2,
                       help="timing-pass executions per cell; the fastest "
                            "wall time counts (noise filter)")
    bench.add_argument("--out", default="BENCH_current.json",
                       help="bench report path (empty string to skip); "
                       "BENCH_headline.json is the committed baseline")
    bench.add_argument("--compare", metavar="BASELINE", default=None,
                       help="baseline repro.bench report to gate against")
    bench.add_argument("--tolerance", type=float, default=0.2,
                       help="allowed fractional events/sec regression")
    bench.add_argument("--trajectory-dir", default="BENCH_trajectory",
                       metavar="DIR",
                       help="perf-history directory each run is archived "
                       "to ('none' to skip)")
    bench.add_argument("--trace-malloc", action="store_true",
                       help="sample tracemalloc memory into phase buckets "
                       "(slows the profiler pass, never its result)")
    bench.add_argument("--flame", default="", metavar="PATH",
                       help="write a collapsed-stack flamegraph file, "
                       "stacks rooted at the cell name")
    bench.add_argument("--speedscope", default="", metavar="PATH",
                       help="write a speedscope JSON file, one profile "
                       "per cell")
    bench.set_defaults(func=cmd_bench)

    live = sub.add_parser(
        "live",
        help="open-ended live run: continuous arrivals until a horizon",
        description="Run the repro.experiments.live driver: continuous "
        "Poisson (optionally diurnal) MapReduce arrivals plus interactive "
        "load on a hybrid cluster, sampled into telemetry frames until a "
        "virtual-time horizon or Ctrl-C.  Stream the frames with "
        "'repro serve' or 'repro trace --follow'.",
    )
    live.add_argument("--scale", choices=("tiny", "small", "medium", "paper"),
                      default="tiny")
    live.add_argument("--seed", type=int, default=7)
    live.add_argument("--horizon", type=float, default=1800.0,
                      help="virtual seconds to run")
    live.add_argument("--mean-interarrival", type=float, default=180.0,
                      help="mean seconds between job arrivals")
    live.add_argument("--diurnal-period", type=float, default=0.0,
                      help="sinusoid period for the arrival rate and "
                      "interactive load (0 = flat Poisson)")
    live.add_argument("--diurnal-amplitude", type=float, default=0.6)
    live.add_argument("--clients", type=int, default=150,
                      help="interactive service client count (midpoint "
                      "when diurnal)")
    live.add_argument("--sample-interval", type=float, default=15.0,
                      help="virtual seconds between telemetry frames "
                      "(0 disables sampling)")
    live.add_argument("--max-active", type=int, default=4,
                      help="shed arrivals beyond this many in-flight jobs")
    live.add_argument("--blame", action="store_true",
                      help="trace the run and attach critical-path blame "
                      "deltas to every frame")
    live.add_argument("--frames-out", metavar="FILE",
                      default="live_frames.jsonl",
                      help="JSONL frame stream path ('' disables)")
    live.add_argument("--json-out", metavar="FILE", default=None,
                      help="also write the run summary as JSON")
    live.set_defaults(func=cmd_live)

    serve = sub.add_parser(
        "serve",
        help="serve a frame stream as a live SSE dashboard (stdlib only)",
        description="Serve the single-file HTML dashboard for a JSONL "
        "frame file: GET / for the page, /events for the Server-Sent "
        "Events stream, /snapshot for the latest frame as JSON.  With "
        "--follow the server tails the file while a live run writes it.",
    )
    serve.add_argument("frames", help="frame file written by repro live "
                       "(or any JsonlFrameSink)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8341)
    serve.add_argument("--follow", "-f", action="store_true",
                       help="keep event streams open and tail the file")
    serve.add_argument("--rate", type=float, default=0.0,
                       help="replay pacing in virtual seconds per wall "
                       "second (0 = replay instantly)")
    serve.set_defaults(func=cmd_serve)

    zoo = sub.add_parser(
        "zoo",
        help="race every scheduling policy head-to-head; explain the wins",
        description="Run the scheduler-zoo study: a fixed workload x seed "
        "grid across every registered policy (FIFO, Fair, Capacity, delay "
        "scheduling, DRF, SRTF, the job-driven algorithms), ranked per "
        "workload against the FIFO baseline with critical-path blame "
        "deltas explaining each policy's win or loss.  Writes the "
        "canonical repro.zoo/1 report.",
    )
    zoo.add_argument("--scale", choices=("tiny", "small", "medium", "paper"),
                     default="tiny")
    zoo.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    zoo.add_argument("--policies", nargs="+", default=None,
                     metavar="SPEC",
                     help="policy specs to race (default: every registered "
                     "policy); kwargs via name:k=v,... e.g. delay:skip_budget=8")
    zoo.add_argument("--workloads", nargs="+", default=None,
                     choices=("mixed", "shuffle"),
                     help="workload cells (default: all)")
    zoo.add_argument("--out", default="zoo_report.json",
                     help="study report path ('' disables)")
    zoo.set_defaults(func=cmd_zoo)

    prof = sub.add_parser("profile", help="train the Phase I profiler")
    prof.add_argument("benchmark")
    prof.add_argument("--sizes", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    prof.add_argument("--cluster-size", type=int, default=4)
    prof.add_argument("--repeats", type=int, default=1)
    prof.add_argument("--estimate", type=float, nargs="*", default=[1.5])
    prof.set_defaults(func=cmd_profile)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
