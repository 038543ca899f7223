"""Plain-text tables for benchmark output.

The benchmark harness prints the same rows/series each paper figure
plots; these helpers keep that output consistent and diff-able.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

Number = Union[int, float]


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width table with a separator line under the header."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError("row width does not match headers")
    str_rows = [
        [f"{v:.3f}" if isinstance(v, float) else str(v) for v in row] for row in rows
    ]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(name: str, points: Dict[object, Number]) -> str:
    """One labelled series as ``name: k=v  k=v ...``."""
    body = "  ".join(
        f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
        for k, v in points.items()
    )
    return f"{name}: {body}"


def sla_latency_summary(
    services: Sequence[object],
    window_s: Union[float, None] = None,
    now: Union[float, None] = None,
) -> str:
    """Latency table (count, mean / p50 / p95 / p99 ms, SLA, %violated)
    for :class:`~repro.interactive.service.InteractiveService` objects.

    Tail percentiles are the numbers SLAs are written against; means
    hide exactly the excursions the IPS exists to prevent.  With
    ``window_s`` the statistics cover only the probe epochs inside
    ``[now - window_s, now]``.  A service (or window) with no completed
    requests reports ``count`` 0 and all-zero, NaN-free statistics --
    the ``count`` column is what distinguishes "no data" from a genuine
    0 ms latency.
    """
    rows = []
    for svc in services:
        stats = svc.latency_summary(window_s=window_s, now=now)
        violated_pct = (
            100.0 * stats["violations"] / stats["count"] if stats["count"] else 0.0
        )
        rows.append(
            [
                svc.name,
                stats["count"],
                stats["mean_ms"],
                stats["p50_ms"],
                stats["p95_ms"],
                stats["p99_ms"],
                svc.sla_ms,
                violated_pct,
            ]
        )
    return format_table(
        [
            "service", "count", "mean_ms", "p50_ms", "p95_ms", "p99_ms",
            "sla_ms", "viol_%",
        ],
        rows,
        title="interactive service latency",
    )
