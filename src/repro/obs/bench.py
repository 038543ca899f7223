"""Continuous simulator benchmarking and profiling (``repro bench``).

Treats the simulator's own throughput as a first-class metric and says
where its time goes.  Each benchmarked cell (a :mod:`repro.sweep`
figure function) runs in three passes, each under a
:class:`~repro.obs.capture.SimCapture`:

1. a *timing pass* with nothing attached, so ``Simulator.run`` takes
   its fast loop: wall-clock time, events processed and events/sec
   (best-of-``repeats`` executions, so machine noise cannot masquerade
   as a regression);
2. a *profiler pass* under a :class:`~repro.obs.prof.Profiler`:
   per-subsystem self/cumulative wall time, hottest callbacks, engine
   gauges, optional ``tracemalloc`` phases and flamegraph stacks, kept
   under the cell's ``profile``; its per-subsystem event counts become
   the cell's ``event_counts``;
3. a *traced pass* with tracing forced on, collecting spans and the
   :mod:`repro.obs.critpath` blame breakdown.

The passes double as a determinism check: the sha256 digest of the
cell's canonical result must be the timing pass's in all three
(instrumentation must never perturb the simulation), reported per cell
as ``consistent``.

``run_bench`` returns one report (schema ``repro.bench/2``)::

    {
      "schema": "repro.bench/2",
      "repro_version": "...", "python": "...", "platform": "...",
      "scale": "tiny", "seed": 1, "trace_malloc": false,
      "cells": {
        "<figure>": {
          "wall_s": ..., "events": N, "events_per_s": ...,
          "simulators": N, "event_counts": {"repro.sim.network": N, ...},
          "wall_profiled_s": ..., "profile": {...},
          "wall_traced_s": ..., "spans": N, "spans_per_s": ...,
          "result_digest": "sha256...", "consistent": true,
          "jobs": N, "blame_s": {...}, "blame_pct": {...}
        }, ...
      },
      "totals": {"wall_s", "events", "events_per_s", "elapsed_s",
                 "peak_rss_kb"}
    }

``profile`` is :meth:`~repro.obs.prof.Profiler.snapshot`; the
flamegraph exporters and ``format_profile`` in :mod:`repro.obs.prof`
read it from this report.

``compare_reports`` is the CI regression gate: against a baseline it
fails when any cell's events/sec drops by more than the tolerance
(default 20%) or instrumentation perturbed a result.  Result-digest
changes, event-count drift and per-subsystem self-time share shifts of
5 pp or more are notes: simulation outputs and the wall-time mix
legitimately change across PRs -- the gate watches *speed*, the tests
watch *correctness*.
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
import tracemalloc
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro.obs.capture import SimCapture

REPORT_SCHEMA = "repro.bench/2"

#: cells benchmarked by default: the headline claims plus one cell per
#: subsystem of interest (virt overheads, deployment geometry, the
#: scheduler benefit suite, live migration, fault injection)
DEFAULT_CELLS: Tuple[str, ...] = (
    "headline",
    "fig01",
    "fig02",
    "fig08",
    "fig10",
    "chaos",
    "fabric",
)


def _peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process (KB on Linux)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def result_digest(result: object) -> str:
    """sha256 of the canonical JSON of a cell result."""
    payload = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _run_pass(fn, scale, seed: int, **capture) -> Tuple[str, float, SimCapture]:
    """Run one cell under ``SimCapture(**capture)``; returns the result
    digest, the wall time and the capture."""
    with SimCapture(**capture) as cap:
        started = time.perf_counter()
        result = fn(scale, seed)
        wall_s = time.perf_counter() - started
    return result_digest(result), wall_s, cap


def run_cell(
    figure: str,
    scale: str = "tiny",
    seed: int = 1,
    repeats: int = 2,
    trace_malloc: bool = False,
) -> dict:
    """Benchmark one sweep cell: timing, profiler and traced passes, in
    that order.

    The timing pass runs ``repeats`` times and keeps the *fastest* wall
    time -- the usual best-of-N discipline that filters out scheduler
    noise from a shared machine, making the regression gate far less
    flaky.  Every repetition must produce the same result digest (the
    cells are pure functions of seed), which is asserted.
    ``trace_malloc`` samples ``tracemalloc`` memory in the profiler
    pass only.
    """
    from repro.experiments.common import resolve_scale
    from repro.obs.prof import Profiler
    from repro.sweep.cells import load, resolve

    figure = resolve(figure)
    fn = load(figure)
    scale_obj = resolve_scale(scale)

    wall_s = float("inf")
    digest = None
    for _ in range(max(1, repeats)):
        rep_digest, rep_wall_s, timed = _run_pass(fn, scale_obj, seed)
        if digest is not None and rep_digest != digest:
            raise AssertionError(
                f"cell {figure} is not a pure function of its seed: "
                "result digest changed between timing repetitions"
            )
        digest, wall_s = rep_digest, min(wall_s, rep_wall_s)
    events = timed.total_events()

    prof = Profiler(trace_memory=trace_malloc)
    start_tracemalloc = trace_malloc and not tracemalloc.is_tracing()
    if start_tracemalloc:
        tracemalloc.start()
    try:
        profiled_digest, wall_profiled_s, _ = _run_pass(
            fn, scale_obj, seed, profiler=prof
        )
    finally:
        if start_tracemalloc:
            tracemalloc.stop()
    profile = prof.snapshot()

    traced_digest, wall_traced_s, traced = _run_pass(
        fn, scale_obj, seed, tracing=True
    )
    blame = traced.combined_blame()
    spans = traced.total_spans()

    return {
        "figure": figure,
        "wall_s": wall_s,
        "events": events,
        "events_per_s": events / wall_s if wall_s > 0 else 0.0,
        "simulators": len(timed.simulators),
        "event_counts": {
            name: sub["events"]
            for name, sub in profile["subsystems"].items()
            if sub["events"]
        },
        "wall_profiled_s": wall_profiled_s,
        "profile": profile,
        "wall_traced_s": wall_traced_s,
        "spans": spans,
        "spans_per_s": spans / wall_traced_s if wall_traced_s > 0 else 0.0,
        "result_digest": digest,
        "consistent": profiled_digest == digest == traced_digest,
        "jobs": blame["total"]["jobs"],
        "blame_s": blame["total"]["blame_s"],
        "blame_pct": blame["total"]["blame_pct"],
    }


def run_bench(
    cells: Sequence[str] = DEFAULT_CELLS,
    scale: str = "tiny",
    seed: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    repeats: int = 2,
    trace_malloc: bool = False,
) -> dict:
    """Benchmark ``cells`` and return the ``repro.bench/2`` report."""
    started = time.perf_counter()
    out: Dict[str, dict] = {}
    for figure in cells:
        cell = run_cell(
            figure, scale, seed, repeats=repeats, trace_malloc=trace_malloc
        )
        out[cell["figure"]] = cell
        if progress is not None:
            progress(
                f"{cell['figure']}: {cell['events']} events in "
                f"{cell['wall_s']:.2f}s ({cell['events_per_s']:,.0f}/s), "
                f"{cell['spans']} spans, {cell['jobs']} jobs"
            )
    elapsed = time.perf_counter() - started
    total_wall = sum(c["wall_s"] for c in out.values())
    total_events = sum(c["events"] for c in out.values())
    return {
        "schema": REPORT_SCHEMA,
        "repro_version": repro.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scale": scale,
        "seed": seed,
        "trace_malloc": trace_malloc,
        "cells": out,
        "totals": {
            "wall_s": total_wall,
            "events": total_events,
            "events_per_s": total_events / total_wall if total_wall > 0 else 0.0,
            "elapsed_s": elapsed,
            "peak_rss_kb": _peak_rss_kb(),
        },
    }


def write_bench_json(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# regression gate
# ----------------------------------------------------------------------
def consistency_failures(report: dict) -> List[str]:
    """One failure line per cell whose passes disagreed on the digest."""
    return [
        f"{name}: instrumentation perturbed the simulation result "
        "(profiled or traced digest differs from the timing pass)"
        for name, cell in sorted(report.get("cells", {}).items())
        if not cell.get("consistent", True)
    ]


def compare_reports(
    baseline: dict, current: dict, tolerance: float = 0.2
) -> Tuple[List[str], List[str]]:
    """Compare a bench report against a baseline.

    Returns ``(failures, notes)``.  Failures (events/sec regression
    beyond ``tolerance``, instrumentation perturbing a result) should
    fail CI; notes (digest changes, event-count drift, subsystem
    self-time share shifts of 5 pp or more, cell set drift) are
    informational.  Share shifts need a profile on both sides, so a
    ``repro.bench/1`` baseline gates speed only.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError("tolerance must be in [0, 1)")
    failures = consistency_failures(current)
    notes: List[str] = []
    base_cells = baseline.get("cells", {})
    cur_cells = current.get("cells", {})
    for name in sorted(base_cells):
        if name not in cur_cells:
            notes.append(f"{name}: in baseline but missing from current run")
            continue
        base, cur = base_cells[name], cur_cells[name]
        floor = base["events_per_s"] * (1.0 - tolerance)
        if cur["events_per_s"] < floor:
            failures.append(
                f"{name}: events/s regressed "
                f"{base['events_per_s']:,.0f} -> {cur['events_per_s']:,.0f} "
                f"(floor {floor:,.0f} at tolerance {tolerance:.0%})"
            )
        if cur.get("result_digest") != base.get("result_digest"):
            notes.append(
                f"{name}: result digest changed "
                f"(simulation output differs from the baseline)"
            )
        if base.get("events") and cur.get("events") != base["events"]:
            notes.append(
                f"{name}: events {base['events']} -> {cur['events']}"
            )
        base_subs = base.get("profile", {}).get("subsystems", {})
        cur_subs = cur.get("profile", {}).get("subsystems", {})
        if not (base_subs and cur_subs):
            continue
        for sub in sorted(set(base_subs) | set(cur_subs)):
            base_pct = base_subs.get(sub, {}).get("self_pct", 0.0)
            cur_pct = cur_subs.get(sub, {}).get("self_pct", 0.0)
            shift = cur_pct - base_pct
            if abs(shift) >= 5.0:
                notes.append(
                    f"{name}: {sub} self-time share shifted "
                    f"{base_pct:.1f}% -> {cur_pct:.1f}% ({shift:+.1f}pp)"
                )
    for name in sorted(set(cur_cells) - set(base_cells)):
        notes.append(f"{name}: new cell, not in baseline")
    return failures, notes


def format_compare_table(baseline: dict, current: dict) -> str:
    """Per-cell delta table for ``repro bench --compare``.

    A bare pass/fail hides *where* a budget went; this shows each
    cell's events/sec move, the event-count drift, and the largest
    critpath blame-share shift -- the usual first clue to *why* a cell
    got slower (work moved between subsystems vs the same work running
    slower).
    """
    from repro.metrics.report import format_table

    base_cells = baseline.get("cells", {})
    cur_cells = current.get("cells", {})
    rows = []
    for name in sorted(set(base_cells) | set(cur_cells)):
        base, cur = base_cells.get(name), cur_cells.get(name)
        if base is None or cur is None:
            rows.append([
                name, "-", "-", "new" if base is None else "dropped",
                "-", "-",
            ])
            continue
        base_eps, cur_eps = base["events_per_s"], cur["events_per_s"]
        eps_delta = 100.0 * (cur_eps - base_eps) / base_eps if base_eps else 0.0
        shift_label = "-"
        base_blame = base.get("blame_pct", {})
        cur_blame = cur.get("blame_pct", {})
        shifts = [
            (cur_blame.get(c, 0.0) - base_blame.get(c, 0.0), c)
            for c in set(base_blame) | set(cur_blame)
        ]
        if shifts:
            shift, category = max(shifts, key=lambda sc: abs(sc[0]))
            if abs(shift) >= 0.05:
                shift_label = f"{category} {shift:+.1f}pp"
        rows.append([
            name,
            round(base_eps),
            round(cur_eps),
            f"{eps_delta:+.1f}%",
            cur.get("events", 0) - base.get("events", 0),
            shift_label,
        ])
    base_total = baseline.get("totals", {}).get("events_per_s", 0.0)
    cur_total = current.get("totals", {}).get("events_per_s", 0.0)
    total_delta = (
        100.0 * (cur_total - base_total) / base_total if base_total else 0.0
    )
    return format_table(
        ["cell", "base_ev/s", "cur_ev/s", "Δev/s", "Δevents", "blame_shift"],
        rows,
        title=(
            f"bench vs baseline -- total events/s "
            f"{base_total:,.0f} -> {cur_total:,.0f} ({total_delta:+.1f}%)"
        ),
    )


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def format_bench(report: dict) -> str:
    """Human-readable bench report table."""
    from repro.metrics.report import format_table

    rows = []
    for name, cell in sorted(report["cells"].items()):
        top_blame = max(
            cell["blame_s"].items(), key=lambda kv: kv[1]
        )[0] if any(cell["blame_s"].values()) else "-"
        rows.append(
            [
                name,
                round(cell["wall_s"], 3),
                cell["events"],
                round(cell["events_per_s"]),
                cell["spans"],
                cell["jobs"],
                "ok" if cell["consistent"] else "PERTURBED",
                top_blame,
            ]
        )
    totals = report["totals"]
    title = (
        f"repro bench @ {report['scale']} seed {report['seed']} -- "
        f"{totals['events']} events in {totals['wall_s']:.2f}s "
        f"({totals['events_per_s']:,.0f}/s), "
        f"peak RSS {(totals['peak_rss_kb'] or 0) / 1024.0:.0f} MB"
    )
    return format_table(
        ["cell", "wall_s", "events", "events/s", "spans", "jobs",
         "digests", "top_blame"],
        rows,
        title=title,
    )
