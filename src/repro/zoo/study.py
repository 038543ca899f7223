"""Head-to-head policy studies: race the zoo, explain the wins.

:func:`run_study` runs a fixed workload x seed grid across a set of
registered policies (default: the whole zoo) on a native cluster at a
chosen scale, and emits a canonical-JSON report (schema
``repro.zoo/1``) with:

- per-run metrics: makespan, mean JCT, SLA hits, CPU utilization, and a
  content digest over the completion times (the determinism handle:
  same scale+workload+policy+seed => byte-identical digest);
- per-run critical-path blame tiles copied from
  :mod:`repro.obs.critpath` (categories sum exactly to the aggregate
  job makespan);
- per-workload rankings against the ``fifo`` baseline, each entry
  carrying an *explanation* derived from the blame deltas -- e.g.
  "delay cuts network_contention 31% at the cost of +9%
  scheduling_wait" -- so a win is a mechanism, not just a number.

Determinism: the report contains no wall-clock or host-dependent
fields; :func:`study_canonical_json` serializes with sorted keys, so
the whole report is replay-stable.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import Scale, build_native, make_sim, resolve_scale
from repro.mapreduce.job import JobSpec
from repro.workloads.specs import make_job
from repro.zoo.registry import create_policy, policy_names

STUDY_SCHEMA = "repro.zoo/1"

#: baseline every ranking is measured against
BASELINE_POLICY = "fifo"


def _workload_mixed(scale: Scale) -> List[JobSpec]:
    """A production/batch mix across resource classes.

    Queue prefixes (``prod:`` / ``batch:`` / ``adhoc:``) exercise the
    CapacityScheduler; other policies ignore them.  ``adhoc`` is
    deliberately absent from the default capacity config, so the study
    also covers the unknown-queue token-share path.
    """
    return [
        make_job("Twitter", scale.input_gb("Twitter"), name="prod:twitter",
                 num_reducers=scale.pms, desired_jct_s=_deadline(scale, "Twitter")),
        make_job("Wcount", scale.input_gb("Wcount"), name="prod:wcount",
                 num_reducers=scale.pms, desired_jct_s=_deadline(scale, "Wcount")),
        make_job("Kmeans", scale.input_gb("Kmeans"), name="batch:kmeans",
                 num_reducers=scale.pms // 2 or 1,
                 desired_jct_s=_deadline(scale, "Kmeans")),
        make_job("PiEst", scale.input_gb("PiEst"), name="batch:piest",
                 num_reducers=1, desired_jct_s=_deadline(scale, "PiEst")),
        make_job("DistGrep", scale.input_gb("DistGrep"), name="adhoc:distgrep",
                 num_reducers=scale.pms // 2 or 1,
                 desired_jct_s=_deadline(scale, "DistGrep")),
    ]


def _workload_shuffle(scale: Scale) -> List[JobSpec]:
    """Shuffle-heavy contention: two Sorts racing smaller mixed jobs --
    the cell where locality and reduce-readiness policies earn (or
    lose) their keep."""
    return [
        make_job("Sort", scale.input_gb("Sort"), name="prod:sort-a",
                 num_reducers=scale.pms, desired_jct_s=_deadline(scale, "Sort")),
        make_job("Sort", 0.5 * scale.input_gb("Sort"), name="batch:sort-b",
                 num_reducers=scale.pms // 2 or 1,
                 desired_jct_s=_deadline(scale, "Sort")),
        make_job("Wcount", scale.input_gb("Wcount"), name="prod:wcount",
                 num_reducers=scale.pms // 2 or 1,
                 desired_jct_s=_deadline(scale, "Wcount")),
        make_job("Twitter", 0.5 * scale.input_gb("Twitter"), name="adhoc:twitter",
                 num_reducers=scale.pms // 2 or 1,
                 desired_jct_s=_deadline(scale, "Twitter")),
    ]


def _deadline(scale: Scale, benchmark: str) -> float:
    """Per-job SLA deadline: generous enough that a good policy meets
    it under contention and a bad one misses it.  Purely structural
    (input size at this scale), so identical across policies."""
    return 120.0 + 30.0 * scale.input_gb(benchmark)


#: workload name -> builder(scale) -> job specs
WORKLOADS = {
    "mixed": _workload_mixed,
    "shuffle": _workload_shuffle,
}


def workload_names() -> List[str]:
    return sorted(WORKLOADS)


def _round(x: float) -> float:
    return round(float(x), 9)


def _completion_digest(jobs) -> str:
    """sha256 over the canonical completion record -- the byte-identity
    handle for determinism tests and cache keys."""
    record = [
        {
            "job": j.spec.name,
            "submit_s": _round(j.submit_time),
            "finish_s": _round(j.finish_time),
            "jct_s": _round(j.jct),
        }
        for j in jobs
    ]
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_cell(
    scale,
    seed: int,
    policy: str,
    workload: str,
) -> Dict[str, object]:
    """One (workload, policy, seed) race on a fresh native cluster.

    Returns the run record embedded in study reports; also the body of
    the ``zoo`` sweep cell.
    """
    # the cluster stack and critpath load here, not on import, so that
    # listing the workloads (``repro list``) loads neither
    from repro.mapreduce.cluster import MapReduceCluster
    from repro.obs.critpath import blame_from_obs

    scale = resolve_scale(scale)
    builder = WORKLOADS.get(workload)
    if builder is None:
        raise KeyError(
            f"unknown workload {workload!r}; choose from {workload_names()}"
        )
    sim = make_sim(seed, tracing=True)
    cluster, contexts = build_native(sim, scale.pms)
    cluster.start_metering()
    mr = MapReduceCluster(
        sim, cluster.fabric, contexts, scheduler=create_policy(policy)
    )
    specs = builder(scale)
    jobs = mr.run_jobs(specs)
    blame = blame_from_obs(sim.obs)

    jcts = [j.jct for j in jobs]
    deadlines = [j.spec.desired_jct_s for j in jobs]
    sla_met = sum(
        1 for j, d in zip(jobs, deadlines) if d is not None and j.jct <= d
    )
    return {
        "workload": workload,
        "policy": policy,
        "seed": seed,
        "jobs": len(jobs),
        "makespan_s": _round(max(j.finish_time for j in jobs)),
        "mean_jct_s": _round(sum(jcts) / len(jcts)),
        "sla_met": sla_met,
        "sla_total": sum(1 for d in deadlines if d is not None),
        "cpu_utilization": _round(cluster.mean_cpu_utilization()),
        "digest": _completion_digest(jobs),
        "blame": {
            "makespan_s": blame["total"]["makespan_s"],
            "blame_s": blame["total"]["blame_s"],
            "blame_pct": blame["total"]["blame_pct"],
        },
    }


def _aggregate(runs: List[dict]) -> dict:
    """Mean metrics over a policy's seeds within one workload.

    The aggregate blame tiles are per-category means, and the aggregate
    blame makespan is *defined* as their sum, so the tiles-sum-to-
    makespan invariant holds by construction at every level.
    """
    from repro.obs.critpath import CATEGORIES

    n = len(runs)
    tiles = {
        c: _round(sum(r["blame"]["blame_s"][c] for r in runs) / n)
        for c in CATEGORIES
    }
    total = _round(sum(tiles.values()))
    return {
        "mean_makespan_s": _round(sum(r["makespan_s"] for r in runs) / n),
        "mean_jct_s": _round(sum(r["mean_jct_s"] for r in runs) / n),
        "sla_met_frac": _round(
            sum(r["sla_met"] for r in runs)
            / max(1, sum(r["sla_total"] for r in runs))
        ),
        "mean_cpu_utilization": _round(
            sum(r["cpu_utilization"] for r in runs) / n
        ),
        "blame": {
            "makespan_s": total,
            "blame_s": tiles,
            "blame_pct": {
                c: _round(100.0 * v / total if total > 0 else 0.0)
                for c, v in tiles.items()
            },
        },
    }


def _explain(policy: str, agg: dict, base: dict) -> str:
    """Blame-delta narrative vs the baseline: where the seconds went.

    Compares per-category blame against the baseline's and names the
    largest cut and the largest growth, so every ranking entry says
    *why* it ranks where it does.
    """
    from repro.obs.critpath import CATEGORIES

    if policy == BASELINE_POLICY:
        return "baseline"
    delta_pct = 100.0 * (
        agg["mean_makespan_s"] - base["mean_makespan_s"]
    ) / base["mean_makespan_s"]
    deltas: List[Tuple[float, str]] = []
    for category in CATEGORIES:
        b = base["blame"]["blame_s"][category]
        v = agg["blame"]["blame_s"][category]
        deltas.append((v - b, category))
    cut_s, cut = min(deltas)
    grow_s, grow = max(deltas)
    parts = [f"makespan {delta_pct:+.1f}% vs {BASELINE_POLICY}"]
    if cut_s < -1e-6:
        base_s = base["blame"]["blame_s"][cut]
        rel = -100.0 * cut_s / base_s if base_s > 0 else 0.0
        parts.append(f"cuts {cut} {abs(cut_s):.0f}s (-{rel:.0f}%)")
    if grow_s > 1e-6:
        parts.append(f"at the cost of +{grow_s:.0f}s {grow}")
    if len(parts) == 1:
        parts.append("blame profile unchanged")
    return "; ".join(parts)


def run_study(
    scale="tiny",
    seeds: Sequence[int] = (1,),
    policies: Optional[Sequence[str]] = None,
    workloads: Optional[Sequence[str]] = None,
) -> dict:
    """Race every policy over the workload x seed grid; return the report."""
    scale = resolve_scale(scale)
    policies = list(policies) if policies else policy_names()
    workloads = list(workloads) if workloads else workload_names()
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    # reject a bad name before any race runs, not when its first cell does
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        raise KeyError(f"unknown workloads {unknown}; choose from {workload_names()}")

    runs: List[dict] = []
    for workload in workloads:
        for policy in policies:
            for seed in seeds:
                runs.append(run_cell(scale, seed, policy, workload))

    rankings: Dict[str, List[dict]] = {}
    for workload in workloads:
        per_policy = {
            policy: _aggregate(
                [
                    r
                    for r in runs
                    if r["workload"] == workload and r["policy"] == policy
                ]
            )
            for policy in policies
        }
        base = per_policy.get(BASELINE_POLICY) or per_policy[policies[0]]
        table = []
        for policy in policies:
            agg = per_policy[policy]
            entry = {
                "policy": policy,
                "delta_vs_baseline_pct": _round(
                    100.0
                    * (agg["mean_makespan_s"] - base["mean_makespan_s"])
                    / base["mean_makespan_s"]
                ),
                "explanation": _explain(policy, agg, base),
            }
            entry.update(agg)
            table.append(entry)
        table.sort(key=lambda e: (e["mean_makespan_s"], e["policy"]))
        for rank, entry in enumerate(table, start=1):
            entry["rank"] = rank
        rankings[workload] = table

    return {
        "schema": STUDY_SCHEMA,
        "scale": scale.name,
        "seeds": seeds,
        "baseline": BASELINE_POLICY,
        "policies": policies,
        "workloads": workloads,
        "runs": runs,
        "rankings": rankings,
    }


# ----------------------------------------------------------------------
# serialization / rendering
# ----------------------------------------------------------------------
def study_canonical_json(report: dict) -> str:
    """Deterministic serialization (sorted keys, fixed separators)."""
    return json.dumps(report, sort_keys=True, separators=(",", ": "), indent=2)


def write_study_json(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(study_canonical_json(report) + "\n")


def format_study(report: dict) -> str:
    """Human-readable ranking tables, one per workload."""
    from repro.metrics.report import format_table

    sections: List[str] = []
    header = (
        f"scheduler zoo study -- scale={report['scale']} "
        f"seeds={report['seeds']} baseline={report['baseline']}"
    )
    sections.append(header)
    for workload in report["workloads"]:
        rows = []
        for entry in report["rankings"][workload]:
            rows.append(
                [
                    str(entry["rank"]),
                    entry["policy"],
                    f"{entry['mean_makespan_s']:.1f}",
                    f"{entry['delta_vs_baseline_pct']:+.1f}%",
                    f"{entry['mean_jct_s']:.1f}",
                    f"{100.0 * entry['sla_met_frac']:.0f}%",
                    f"{100.0 * entry['mean_cpu_utilization']:.0f}%",
                    entry["explanation"],
                ]
            )
        sections.append(
            f"[{workload}]\n"
            + format_table(
                ["#", "policy", "makespan_s", "vs base", "mean_jct_s",
                 "sla", "cpu", "why"],
                rows,
            )
        )
    return "\n\n".join(sections)
