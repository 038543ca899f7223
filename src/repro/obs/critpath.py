"""Critical-path extraction and blame attribution from trace events.

Consumes the canonical event dicts of :func:`repro.obs.export.collect_events`
(a run with tracing enabled) and answers *why a job took as long as it
did*: the per-job causal chain of attempts and waits that tiles the
interval from submission to completion, with every second attributed to
one blame category:

==================== ==================================================
``compute``          useful CPU work (task init + map/reduce functions)
``scheduling_wait``  runnable but waiting for a slot / dispatch
``virt_overhead``    virtualization tax: sustained-I/O penalty, CPU /
                     disk / NIC efficiency below native, migration pauses
``disk_contention``  time moving bytes through disks (read/spill/merge/
                     output stages, net of virt and straggler shares)
``network_contention`` time with shuffle or input bytes on the wire
``shuffle_wait``     reducer idle in its shuffle stage, waiting for
                     upstream map output
``fault_reexecution`` work and waits caused by a fault (lost node, lost
                     map output)
``straggler_slack``  extra time from data skew / slow attempts, and the
                     slack a speculative winner had to cover
``unattributed``     anything the chain walk cannot explain (should be
                     ~0; kept so the invariant below always holds)
==================== ==================================================

The decomposition is *exact by construction*: per job, the emitted path
segments tile ``[submit, finish]`` with no gaps or overlaps, so the
category durations sum to the job makespan to float precision.  The
walk is purely a function of the event list -- deterministic, no
randomness, no wall clock -- so reports are byte-identical across runs.

Causal edges used:

- task attempt -> waited-for slot: ``runnable_since``/``wait_s`` span
  args recorded by the JobTracker's runnable bookkeeping;
- shuffle fetch -> upstream map: the reducer's ``fetch_busy_s`` split
  of its shuffle stage (busy = bytes on the wire, idle = maps pending);
- re-execution -> fault: ``fault_reexec`` span args plus the
  ``task.reexecute`` instants emitted when map outputs are lost;
- migration pause -> stalled tasks: ``stop-and-copy`` spans overlap
  attempt stages on the migrating VM and reattribute to virt overhead.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.mapreduce.task import skew_io_penalty

#: blame categories, in report order
CATEGORIES: Tuple[str, ...] = (
    "compute",
    "scheduling_wait",
    "virt_overhead",
    "disk_contention",
    "network_contention",
    "shuffle_wait",
    "fault_reexecution",
    "straggler_slack",
    "unattributed",
)

REPORT_SCHEMA = "repro.critpath/1"

_EPS = 1e-9

#: stages whose duration scales with the disk (vs cpu / network)
_DISK_STAGES = frozenset({"read", "spill", "merge", "output"})


class _Segment:
    """One critical-path interval with its blame category."""

    __slots__ = ("start", "end", "category", "kind", "label")

    def __init__(
        self, start: float, end: float, category: str, kind: str, label: str
    ) -> None:
        self.start = start
        self.end = end
        self.category = category
        self.kind = kind  # "stage" | "wait" | "gap"
        self.label = label

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def to_dict(self) -> dict:
        return {
            "start": _round(self.start),
            "end": _round(self.end),
            "category": self.category,
            "kind": self.kind,
            "label": self.label,
        }


def _round(x: float) -> float:
    """Stabilize float formatting in reports (12 significant decimals)."""
    return round(float(x), 9)


def _merged_overlap(
    lo: float, hi: float, windows: List[Tuple[float, float]]
) -> float:
    """Total length of ``[lo, hi]`` covered by the (possibly
    overlapping) ``windows``."""
    if hi - lo <= _EPS or not windows:
        return 0.0
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in windows if min(hi, b) > max(lo, a)
    )
    total = 0.0
    cur_lo: Optional[float] = None
    cur_hi = 0.0
    for a, b in clipped:
        if cur_lo is None:
            cur_lo, cur_hi = a, b
        elif a <= cur_hi:
            cur_hi = max(cur_hi, b)
        else:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return min(total, hi - lo)


# ----------------------------------------------------------------------
# per-attempt stage decomposition
# ----------------------------------------------------------------------
def _split_stage(
    name: str,
    duration: float,
    args: dict,
    pause_overlap_s: float,
) -> Dict[str, float]:
    """Blame durations for one stage of a succeeded attempt.

    Fractional model mirroring how task.py *constructs* stage times:
    a disk stage runs ``(1 + p_v + p_s)`` slower than baseline (virt
    sustained-I/O penalty ``p_v``, skew penalty ``p_s``), a cpu stage
    carries ``work_factor`` times the baseline work, the shuffle stage
    is fetch-busy (wire time) or idle (upstream maps pending).  Each
    multiplicative surcharge claims its share of the stage, the
    efficiency shortfall of the placement claims ``1 - eff`` of the
    remainder, and what is left is the baseline cost.  Migration
    stop-and-copy overlap is carved out first as virt overhead.
    """
    out: Dict[str, float] = {}

    def add(category: str, amount: float) -> None:
        if amount > 0.0:
            out[category] = out.get(category, 0.0) + amount

    pause = min(max(0.0, pause_overlap_s), duration)
    add("virt_overhead", pause)
    d = duration - pause
    if d <= 0.0:
        return out

    wf = float(args.get("work_factor", 1.0) or 1.0)
    p_v = float(args.get("io_penalty", 0.0) or 0.0)

    if name == "init":
        add("compute", d)
    elif name == "cpu":
        straggler = d * (wf - 1.0) / wf if wf > 1.0 else 0.0
        rest = d - straggler
        cpu_eff = float(args.get("cpu_eff", 1.0) or 1.0)
        virt = rest * (1.0 - min(1.0, cpu_eff))
        add("straggler_slack", straggler)
        add("virt_overhead", virt)
        add("compute", rest - virt)
    elif name in _DISK_STAGES:
        # the output stage carries no skew surcharge in task.py
        p_s = 0.0 if name == "output" else skew_io_penalty(wf)
        denom = 1.0 + p_v + p_s
        add("virt_overhead", d * p_v / denom)
        add("straggler_slack", d * p_s / denom)
        rest = d / denom
        disk_eff = float(args.get("disk_eff", 1.0) or 1.0)
        virt = rest * (1.0 - min(1.0, disk_eff))
        add("virt_overhead", virt)
        add("disk_contention", rest - virt)
    elif name == "shuffle":
        busy = min(d, max(0.0, float(args.get("fetch_busy_s", 0.0) or 0.0)))
        net_eff = float(args.get("net_eff", 1.0) or 1.0)
        virt = busy * (1.0 - min(1.0, net_eff))
        add("virt_overhead", virt)
        add("network_contention", busy - virt)
        add("shuffle_wait", d - busy)
    else:  # unknown stage name: keep the invariant, flag the time
        add("unattributed", d)
    return out


def _attempt_segments(
    attempt: dict,
    stages: List[dict],
    lo: float,
    hi: float,
    pauses: List[Tuple[float, float]],
) -> Tuple[List[_Segment], Dict[str, float]]:
    """Path segments + blame for one attempt clipped to ``[lo, hi]``."""
    args = attempt["args"]
    label = attempt["name"]
    segments: List[_Segment] = []
    blame: Dict[str, float] = {}

    def charge(split: Dict[str, float]) -> None:
        for category, amount in split.items():
            blame[category] = blame.get(category, 0.0) + amount

    if args.get("fault_reexec"):
        # the entire re-execution is extra work caused by the fault
        segments.append(_Segment(lo, hi, "fault_reexecution", "stage", label))
        charge({"fault_reexecution": hi - lo})
        return segments, blame

    covered = lo
    for stage in sorted(stages, key=lambda s: (s["ts"], s["id"])):
        s0 = max(lo, stage["ts"])
        s1 = min(hi, stage["ts"] + stage["dur"])
        if s1 - s0 <= _EPS:
            continue
        if s0 - covered > _EPS:  # hole between stages (shouldn't happen)
            segments.append(
                _Segment(covered, s0, "unattributed", "gap", label)
            )
            charge({"unattributed": s0 - covered})
        overlap = _merged_overlap(s0, s1, pauses)
        split = _split_stage(stage["name"], s1 - s0, args, overlap)
        dominant = max(
            split.items(), key=lambda kv: (kv[1], CATEGORIES.index(kv[0]))
        )[0] if split else "compute"
        segments.append(
            _Segment(s0, s1, dominant, "stage", f"{label}:{stage['name']}")
        )
        charge(split)
        covered = s1
    if hi - covered > _EPS:
        # no (or truncated) stage spans: count the tail as compute so
        # the tiling invariant holds even for sparse traces
        segments.append(_Segment(covered, hi, "compute", "stage", label))
        charge({"compute": hi - covered})
    return segments, blame


# ----------------------------------------------------------------------
# per-job chain walk
# ----------------------------------------------------------------------
def _job_blame(
    job: dict,
    attempts: List[dict],
    stages_by_attempt: Dict[int, List[dict]],
    pauses_by_ctx: Dict[str, List[Tuple[float, float]]],
    reexec_count: int,
    slowstart_ts: Optional[float],
) -> dict:
    submit = job["ts"]
    finish = job["ts"] + job["dur"]
    succeeded = [
        a for a in attempts if a["args"].get("status") == "succeeded"
    ]
    segments: List[_Segment] = []
    blame = {category: 0.0 for category in CATEGORIES}

    def charge(split: Dict[str, float]) -> None:
        for category, amount in split.items():
            blame[category] += amount

    cursor = finish
    used: set = set()
    while cursor > submit + _EPS:
        candidates = [
            a
            for a in succeeded
            if a["id"] not in used and a["ts"] + a["dur"] <= cursor + _EPS
        ]
        if not candidates:
            # nothing on the chain explains [submit, cursor]
            segments.append(
                _Segment(submit, cursor, "unattributed", "gap", "no-chain")
            )
            charge({"unattributed": cursor - submit})
            break
        attempt = max(
            candidates, key=lambda a: (a["ts"] + a["dur"], a["ts"], a["id"])
        )
        used.add(attempt["id"])
        end = attempt["ts"] + attempt["dur"]
        if cursor - end > _EPS:
            # dead time between this attempt's finish and whatever ran
            # next on the path: dispatch latency / slot scheduling
            segments.append(
                _Segment(end, cursor, "scheduling_wait", "gap", "dispatch")
            )
            charge({"scheduling_wait": cursor - end})
        lo = max(submit, attempt["ts"])
        hi = min(cursor, end)
        if hi - lo > _EPS:
            ctx = attempt["args"].get("ctx")
            pauses = pauses_by_ctx.get(ctx, []) if ctx else []
            segs, split = _attempt_segments(
                attempt, stages_by_attempt.get(attempt["id"], []),
                lo, hi, pauses,
            )
            segments.extend(segs)
            charge(split)
        cursor = lo
        runnable = attempt["args"].get("runnable_since")
        runnable = cursor if runnable is None else float(runnable)
        runnable = max(submit, min(runnable, cursor))
        if cursor - runnable > _EPS:
            args = attempt["args"]
            if args.get("fault_reexec"):
                category = "fault_reexecution"
            elif args.get("speculative"):
                # the wait a speculative winner had to cover is the
                # original straggler's slack
                category = "straggler_slack"
            else:
                category = "scheduling_wait"
            segments.append(
                _Segment(runnable, cursor, category, "wait",
                         f"{attempt['name']}:wait")
            )
            charge({category: cursor - runnable})
        cursor = runnable

    segments.sort(key=lambda s: (s.start, s.end))
    makespan = finish - submit
    attributed = sum(blame.values())
    # numerical slack from float accumulation folds into unattributed,
    # keeping the sum-to-makespan invariant exact in the report
    blame["unattributed"] += makespan - attributed
    return {
        "job": job["name"],
        "job_id": job["args"].get("job_id"),
        "benchmark": job["args"].get("benchmark"),
        "submit_s": _round(submit),
        "finish_s": _round(finish),
        "makespan_s": _round(makespan),
        "blame_s": {k: _round(v) for k, v in blame.items()},
        "blame_pct": {
            k: _round(100.0 * v / makespan if makespan > 0 else 0.0)
            for k, v in blame.items()
        },
        "causal": {
            "attempts_on_path": len(used),
            "reexecute_instants": reexec_count,
            "slowstart_ts": (
                _round(slowstart_ts) if slowstart_ts is not None else None
            ),
        },
        "path": [s.to_dict() for s in segments],
    }


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
def build_blame(events: List[dict]) -> dict:
    """Blame report from canonical trace events (see module docstring).

    Only jobs whose span closed with ``state == "succeeded"`` are
    analyzed; killed or unfinished jobs are listed in ``skipped``.
    """
    spans = [e for e in events if e["type"] == "span"]
    instants = [e for e in events if e["type"] == "instant"]
    jobs = [s for s in spans if s["cat"] == "job"]
    attempts_by_job: Dict[object, List[dict]] = {}
    for span in spans:
        if span["cat"] == "task":
            attempts_by_job.setdefault(
                span["args"].get("job_id"), []
            ).append(span)
    stages_by_attempt: Dict[int, List[dict]] = {}
    for span in spans:
        if span["cat"] == "task.stage" and span["parent"] is not None:
            stages_by_attempt.setdefault(span["parent"], []).append(span)
    pauses_by_ctx: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["cat"] == "migration" and span["name"] == "stop-and-copy":
            vm = span["args"].get("vm")
            if vm:
                pauses_by_ctx.setdefault(vm, []).append(
                    (span["ts"], span["ts"] + span["dur"])
                )
    reexec_by_job: Dict[object, int] = {}
    slowstart_by_job: Dict[object, float] = {}
    for instant in instants:
        job_id = instant["args"].get("job_id")
        if instant["name"].startswith("task.reexecute:"):
            reexec_by_job[job_id] = reexec_by_job.get(job_id, 0) + 1
        elif instant["name"].startswith("job.slowstart:"):
            slowstart_by_job.setdefault(job_id, instant["ts"])

    job_reports: List[dict] = []
    skipped: List[dict] = []
    for job in sorted(jobs, key=lambda j: (j["ts"], j["id"])):
        state = job["args"].get("state")
        if state != "succeeded":
            skipped.append({"job": job["name"], "state": state or "open"})
            continue
        job_id = job["args"].get("job_id")
        job_reports.append(
            _job_blame(
                job,
                attempts_by_job.get(job_id, []),
                stages_by_attempt,
                pauses_by_ctx,
                reexec_by_job.get(job_id, 0),
                slowstart_by_job.get(job_id),
            )
        )

    totals = {category: 0.0 for category in CATEGORIES}
    total_makespan = 0.0
    for report in job_reports:
        total_makespan += report["makespan_s"]
        for category in CATEGORIES:
            totals[category] += report["blame_s"][category]
    return {
        "schema": REPORT_SCHEMA,
        "jobs": job_reports,
        "skipped": skipped,
        "total": {
            "jobs": len(job_reports),
            "makespan_s": _round(total_makespan),
            "blame_s": {k: _round(v) for k, v in totals.items()},
            "blame_pct": {
                k: _round(
                    100.0 * v / total_makespan if total_makespan > 0 else 0.0
                )
                for k, v in totals.items()
            },
        },
    }


def merge_blame(reports: List[dict]) -> dict:
    """Combine blame reports from several simulators into one.

    Used when one experiment cell builds multiple simulators (e.g. a
    native/virtual/hybrid comparison): job lists concatenate in input
    order, totals re-accumulate.
    """
    jobs: List[dict] = []
    skipped: List[dict] = []
    for report in reports:
        jobs.extend(report["jobs"])
        skipped.extend(report["skipped"])
    totals = {category: 0.0 for category in CATEGORIES}
    total_makespan = 0.0
    for job in jobs:
        total_makespan += job["makespan_s"]
        for category in CATEGORIES:
            totals[category] += job["blame_s"][category]
    return {
        "schema": REPORT_SCHEMA,
        "jobs": jobs,
        "skipped": skipped,
        "total": {
            "jobs": len(jobs),
            "makespan_s": _round(total_makespan),
            "blame_s": {k: _round(v) for k, v in totals.items()},
            "blame_pct": {
                k: _round(
                    100.0 * v / total_makespan if total_makespan > 0 else 0.0
                )
                for k, v in totals.items()
            },
        },
    }


def blame_from_obs(obs) -> dict:
    """Blame report straight from a traced :class:`Observability`."""
    from repro.obs.export import collect_events

    return build_blame(collect_events(obs))


def blame_summary(report: dict) -> Dict[str, float]:
    """Flat ``{category: seconds}`` totals of a blame report."""
    return dict(report["total"]["blame_s"])


def canonical_json(report: dict) -> str:
    """Deterministic serialization (sorted keys, fixed separators)."""
    return json.dumps(report, sort_keys=True, separators=(",", ": "), indent=2)


def write_blame_json(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(report) + "\n")


# ----------------------------------------------------------------------
# renderings
# ----------------------------------------------------------------------
def format_blame(report: dict) -> str:
    """Human-readable blame tables (one per job, plus totals)."""
    from repro.metrics.report import format_table

    sections: List[str] = []
    for job in report["jobs"]:
        rows = [
            [category, job["blame_s"][category], job["blame_pct"][category]]
            for category in CATEGORIES
            if job["blame_s"][category] > 0.0
        ]
        sections.append(
            format_table(
                ["category", "seconds", "pct"],
                rows,
                title=(
                    f"{job['job']} -- makespan {job['makespan_s']:.1f}s, "
                    f"{job['causal']['attempts_on_path']} attempts on path"
                ),
            )
        )
    total = report["total"]
    if total["jobs"] > 1:
        rows = [
            [category, total["blame_s"][category], total["blame_pct"][category]]
            for category in CATEGORIES
            if total["blame_s"][category] > 0.0
        ]
        sections.append(
            format_table(
                ["category", "seconds", "pct"],
                rows,
                title=(
                    f"all {total['jobs']} jobs -- "
                    f"{total['makespan_s']:.1f}s summed makespan"
                ),
            )
        )
    if report["skipped"]:
        names = ", ".join(
            f"{s['job']} ({s['state']})" for s in report["skipped"]
        )
        sections.append(f"skipped (not succeeded): {names}")
    if not sections:
        return "(no completed jobs in trace)"
    return "\n\n".join(sections)


#: the Chrome trace thread id of the ``critpath`` row
CRITPATH_TID = 99


def chrome_blame_events(report: dict) -> List[dict]:
    """Chrome trace-event dicts rendering each job's critical path.

    Appended to a Chrome trace document's ``traceEvents`` these add a
    ``critpath`` thread where every path segment is an ``X`` slice named
    by its blame category, so the blame is visible next to the raw spans
    in ``chrome://tracing`` / Perfetto.
    """
    out: List[dict] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": CRITPATH_TID,
            "args": {"name": "critpath"},
        }
    ]
    for job in report["jobs"]:
        for segment in job["path"]:
            out.append(
                {
                    "name": segment["category"],
                    "cat": "critpath",
                    "ph": "X",
                    "ts": segment["start"] * 1e6,
                    "dur": (segment["end"] - segment["start"]) * 1e6,
                    "pid": 1,
                    "tid": CRITPATH_TID,
                    "args": {
                        "job": job["job"],
                        "label": segment["label"],
                        "kind": segment["kind"],
                    },
                }
            )
    return out


def extend_chrome_trace(doc: dict, report: dict) -> dict:
    """Append blame metadata to a Chrome trace document (in place)."""
    doc["traceEvents"].extend(chrome_blame_events(report))
    return doc
