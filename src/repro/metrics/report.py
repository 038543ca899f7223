"""Plain-text tables for benchmark output.

The benchmark harness prints the same rows/series each paper figure
plots; these helpers keep that output consistent and diff-able.
"""

from __future__ import annotations

from typing import Dict, Sequence, Union

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
