"""Parallel experiment sweeps with content-addressed result caching.

The substrate for every parameter study in the reproduction: define a
grid of figure cells (scale × seed × parameters) as a
:class:`SweepSpec`, execute it with :func:`run_sweep` -- fanned out
across worker processes and satisfied from the on-disk
:class:`ResultCache` where possible -- and read the cross-seed
aggregation (mean / stdev / p50 / p95 / bootstrap CI per metric) from
the returned report, which ``repro sweep`` also writes as
``BENCH_sweep.json``.

Determinism contract: a cell is a pure function of (repro version,
figure, scale, seed, params).  The same cell run inline, in a worker
process, or served from cache yields a byte-identical result document.
"""

from repro._lazy import lazy_exports

__all__ = [
    "SweepSpec",
    "CellSpec",
    "ResultCache",
    "DEFAULT_CACHE_DIR",
    "cell_key",
    "cell_names",
    "execute_cell",
    "run_sweep",
    "aggregate_cells",
    "canonical_report",
    "write_canonical_json",
    "flatten",
    "summarize",
    "format_report",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sweep.spec": ("SweepSpec", "CellSpec"),
    "repro.sweep.cache": ("ResultCache", "DEFAULT_CACHE_DIR", "cell_key"),
    "repro.sweep.cells": ("cell_names",),
    "repro.sweep.runner": ("execute_cell", "run_sweep"),
    "repro.sweep.aggregate": (
        "aggregate_cells", "canonical_report", "write_canonical_json",
        "flatten", "summarize", "format_report",
    ),
})
