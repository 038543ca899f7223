"""Cross-seed aggregation of sweep results.

Cells that differ only by seed form a *group*.  Every numeric leaf of a
cell's result dict is flattened to a dotted path ("fig8c.Sort.cpu",
"configs.0.mean_jct_s"), and each path is summarized across the group's
seeds: n / mean / sample stdev / min / max / p50 / p95 plus a bootstrap
95% confidence interval of the mean.  The bootstrap RNG is seeded from
the metric path and sample values, so reports are reproducible without
touching the simulation seeds.

Per-cell ``repro.obs`` counter snapshots aggregate the same way under
each group's ``obs`` key, per-cell wall-clock time under ``wall_s``
(mean/p95 wall time per cell in the report JSON), and -- for blame
sweeps -- the :mod:`repro.obs.critpath` category totals under
``blame``.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Sequence

from repro.sim.trace import percentile

BOOTSTRAP_RESAMPLES = 1000


def flatten(obj, prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of a nested dict/list as ``{dotted.path: value}``."""
    out: Dict[str, float] = {}
    if isinstance(obj, dict):
        items = [(str(k), v) for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        items = [(str(i), v) for i, v in enumerate(obj)]
    else:
        items = None
    if items is None:
        if isinstance(obj, bool) or not isinstance(obj, (int, float)):
            return out
        out[prefix.rstrip(".")] = float(obj)
        return out
    for key, value in items:
        out.update(flatten(value, f"{prefix}{key}."))
    return out


def bootstrap_ci(
    values: Sequence[float], path: str = "", resamples: int = BOOTSTRAP_RESAMPLES
) -> Dict[str, float]:
    """Percentile-bootstrap 95% CI of the mean (deterministic)."""
    values = list(values)
    n = len(values)
    if n == 1:
        return {"ci95_lo": values[0], "ci95_hi": values[0]}
    rng = random.Random(f"sweep-ci:{path}:{n}")
    means = []
    for _ in range(resamples):
        total = 0.0
        for _ in range(n):
            total += values[rng.randrange(n)]
        means.append(total / n)
    return {
        "ci95_lo": percentile(means, 2.5),
        "ci95_hi": percentile(means, 97.5),
    }


def summarize(values: Sequence[float], path: str = "") -> Dict[str, float]:
    """Cross-seed statistics for one metric path."""
    values = list(values)
    n = len(values)
    mean = sum(values) / n
    if n > 1:
        stdev = (sum((v - mean) ** 2 for v in values) / (n - 1)) ** 0.5
    else:
        stdev = 0.0
    stats = {
        "n": n,
        "mean": mean,
        "stdev": stdev,
        "min": min(values),
        "max": max(values),
        "p50": percentile(values, 50.0),
        "p95": percentile(values, 95.0),
    }
    stats.update(bootstrap_ci(values, path))
    return stats


def _group_key(cell: dict) -> tuple:
    # canonical JSON keeps list/dict-valued params (e.g. a cell's
    # ``deployments`` list) hashable and order-insensitive
    params = json.dumps(cell.get("params", {}), sort_keys=True)
    return (cell["figure"], cell["scale"], params)


def aggregate_cells(cells: Sequence[dict]) -> List[dict]:
    """Group per-seed cell records and summarize every metric path.

    Cells must carry ``figure``/``scale``/``seed``/``params``/``result``
    /``metrics``/``wall_s`` keys (the runner's record shape).  Group
    order follows first appearance, i.e. the spec's order.
    """
    order: List[tuple] = []
    grouped: Dict[tuple, List[dict]] = {}
    for cell in cells:
        key = _group_key(cell)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(cell)
    out: List[dict] = []
    for key in order:
        members = sorted(grouped[key], key=lambda c: c["seed"])
        paths: Dict[str, List[float]] = {}
        counters: Dict[str, List[float]] = {}
        blame_paths: Dict[str, List[float]] = {}
        for cell in members:
            for path, value in flatten(cell["result"]).items():
                paths.setdefault(path, []).append(value)
            obs = cell.get("metrics") or {}
            for name, value in (obs.get("counters") or {}).items():
                counters.setdefault(name, []).append(value)
            for path, value in flatten(cell.get("blame") or {}).items():
                blame_paths.setdefault(path, []).append(value)
        figure, scale, params_json = key
        group = {
            "figure": figure,
            "scale": scale,
            "params": json.loads(params_json),
            "seeds": [c["seed"] for c in members],
            "wall_s": summarize(
                [c["wall_s"] for c in members], f"{figure}:wall_s"
            ),
            "metrics": {
                path: summarize(values, f"{figure}:{path}")
                for path, values in sorted(paths.items())
            },
            "obs": {
                name: summarize(values, f"{figure}:obs:{name}")
                for name, values in sorted(counters.items())
            },
        }
        if blame_paths:
            # blame cells carry jobs / blame_s.<cat> / blame_pct.<cat>
            group["blame"] = {
                path: summarize(values, f"{figure}:blame:{path}")
                for path, values in sorted(blame_paths.items())
            }
        out.append(group)
    return out


# ----------------------------------------------------------------------
# canonical (wall-clock-free) projection
# ----------------------------------------------------------------------
CANONICAL_SCHEMA = "repro.sweep/canonical-2"

#: the deterministic subset of a cell record; wall_s / cache_hit are
#: execution accidents, everything here is a function of the spec
_CANONICAL_CELL_FIELDS = (
    "figure", "scale", "seed", "params", "key", "result", "metrics", "blame",
)


def canonical_report(report: dict) -> dict:
    """Deterministic projection of a sweep report.

    Strips every field that depends on *how* the study executed rather
    than *what* it computed: per-cell ``wall_s``/``cache_hit``, the
    timing totals, the worker count, and per-group ``wall_s`` summaries.
    Two runs of the same spec -- inline, across worker processes, or
    resumed from the cache after an interruption -- project to
    byte-identical documents, which is the determinism contract CI
    enforces with ``cmp``.
    """
    cells = [
        {k: cell[k] for k in _CANONICAL_CELL_FIELDS if k in cell}
        for cell in report["cells"]
    ]
    groups = [
        {k: v for k, v in group.items() if k != "wall_s"}
        for group in report["groups"]
    ]
    return {
        "schema": CANONICAL_SCHEMA,
        "repro_version": report.get("repro_version"),
        "spec": report["spec"],
        "totals": {"cells": len(cells)},
        "cells": cells,
        "groups": groups,
    }


def write_canonical_json(path, report: dict) -> dict:
    """Write :func:`canonical_report` as stable, ``cmp``-able JSON."""
    doc = canonical_report(report)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


# ----------------------------------------------------------------------
# text rendering
# ----------------------------------------------------------------------
def format_group(group: dict) -> str:
    """One group's metric table (mean ± stdev, p50/p95, CI bounds)."""
    from repro.metrics.report import format_table

    rows = []
    for path, stats in group["metrics"].items():
        rows.append(
            [
                path,
                stats["mean"],
                stats["stdev"],
                stats["p50"],
                stats["p95"],
                stats["ci95_lo"],
                stats["ci95_hi"],
            ]
        )
    params = group["params"]
    suffix = f" {params}" if params else ""
    title = (
        f"{group['figure']} @ {group['scale']}{suffix} -- seeds "
        f"{group['seeds']}, wall {group['wall_s']['mean']:.1f}s/cell"
    )
    return format_table(
        ["metric", "mean", "stdev", "p50", "p95", "ci95_lo", "ci95_hi"],
        rows,
        title=title,
    )


def format_report(report: dict) -> str:
    """Human-readable rendering of a full sweep report, every metric shown."""
    totals = report["totals"]
    lines = [
        f"sweep: {totals['cells']} cells "
        f"({totals['executed']} executed, {totals['cache_hits']} cached) "
        f"in {totals['elapsed_s']:.1f}s elapsed, "
        f"{totals['wall_s_sum']:.1f}s simulated work, jobs={report['jobs']}"
    ]
    for group in report["groups"]:
        lines.append("")
        lines.append(format_group(group))
    return "\n".join(lines)
