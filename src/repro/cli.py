"""Command-line interface: run jobs, sweeps and profiling from a shell.

Examples::

    python -m repro list
    python -m repro run Sort --cluster hybrid --pms 8 --input-gb 2
    python -m repro sweep fig01 --scale small --seeds 7 --param parts=fig1a
    python -m repro sweep headline --scale small --seeds 7
    python -m repro profile Sort --sizes 1 2 3 --cluster-size 4

Every command is deterministic for given seeds.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence


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
    from repro.sweep import cell_names

    print("\nsweep cells (repro sweep <cell> --seeds ...):")
    print("  " + " ".join(cell_names()))
    print("  docs/sweep.md gives the sweep for each paper figure")
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


def _parse_sweep_params(entries) -> dict:
    """``key=v1,v2`` strings -> {key: [v1, v2]} with JSON-typed values.

    A body that parses as a JSON list gives the axis's values as listed,
    so one value may hold commas: ``faults=["poisson:node=0.005,nic=0.01"]``
    is a one-value axis.  Any other body splits at commas.
    """
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
            raise ValueError(
                f"bad --param {entry!r}; expected KEY=V1[,V2...] or KEY=[V1, ...]"
            )
        values = typed(body)
        if not isinstance(values, list):
            values = [typed(part) for part in body.split(",")]
        params[key] = values
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


def cmd_bench(args) -> int:
    import json

    from repro.obs.bench import (
        DEFAULT_CELLS,
        compare_reports,
        consistency_failures,
        format_bench,
        format_compare_table,
        run_bench,
        write_bench_json,
    )
    from repro.obs.prof import format_profile, write_collapsed

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
              f"or inferno, or open at https://speedscope.app)")
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
        scale=args.scale,
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
    from repro.sweep import cell_names

    parser = argparse.ArgumentParser(
        prog="repro",
        description="HybridMR reproduction: simulated hybrid data center "
        "MapReduce scheduling (ICDCS 2013)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list", help="list benchmarks, sweep cells and zoo policies"
    ).set_defaults(func=cmd_list)

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

    sweep = sub.add_parser(
        "sweep",
        help="run a cached, parallel multi-seed experiment sweep",
        description="Expand a (figure x scale x seed x param) grid, run "
        "the cells across worker processes with content-addressed result "
        "caching, print every metric's cross-seed statistics and write the "
        "aggregation as JSON.",
    )
    sweep.add_argument(
        "figures", nargs="+",
        help=f"experiment cells ({', '.join(cell_names())})",
    )
    sweep.add_argument("--scales", "--scale", nargs="+", default=["small"],
                       help=f"scales to sweep ({'|'.join(SCALES)})")
    sweep.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4])
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = inline)")
    sweep.add_argument("--param", action="append", default=[],
                       metavar="KEY=V1[,V2...]",
                       help="extra cell parameter axis (repeatable); "
                       "values are parsed as JSON where possible, and a "
                       "JSON list (KEY='[\"a,b\", \"c\"]') lists values "
                       "that hold commas")
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
                       "report (byte-identical across runs of the same "
                       "spec, whatever --jobs and the cache hits)")
    sweep.set_defaults(func=cmd_sweep)

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
    bench.add_argument("--trace-malloc", action="store_true",
                       help="sample tracemalloc memory into phase buckets "
                       "(slows the profiler pass, never its result)")
    bench.add_argument("--flame", default="", metavar="PATH",
                       help="write a collapsed-stack flamegraph file, "
                       "stacks rooted at the cell name (speedscope "
                       "opens it too)")
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
    live.add_argument("--scale", choices=tuple(SCALES), default="tiny")
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
    zoo.add_argument("--scale", choices=tuple(SCALES), default="tiny")
    zoo.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    zoo.add_argument("--policies", nargs="+", default=None,
                     metavar="SPEC",
                     help="policy specs to race (default: every registered "
                     "policy); kwargs via name:k=v,... e.g. delay:skip_budget=8")
    zoo.add_argument("--workloads", nargs="+", default=None,
                     help="workload cells (default: all; repro list "
                     "names them)")
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
