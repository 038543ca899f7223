"""Parallel sweep execution with content-addressed caching.

``run_sweep`` expands a :class:`~repro.sweep.spec.SweepSpec` into
cells, satisfies as many as possible from the
:class:`~repro.sweep.cache.ResultCache`, fans the remainder out across
a ``ProcessPoolExecutor`` (``jobs > 1``) or runs them inline
(``jobs == 1``), and returns the aggregated report document.

Cells are independent simulations with their own seeds, so execution
order cannot change results; the returned cell list (and hence the
written ``BENCH_sweep.json``) is in spec order regardless of
executor scheduling -- only the ``progress`` callback fires in
completion order.  ``execute_cell`` is the single
entry point for both paths -- a top-level function taking one plain
dict, so worker processes receive nothing but picklable data and
resolve the cell function themselves.  It canonicalizes the result
through a JSON round-trip, which makes the in-process record
byte-identical to what a cache hit or a worker process returns.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, List, Optional

import repro
from repro.sweep import cells as cell_registry
from repro.sweep.aggregate import aggregate_cells
from repro.sweep.cache import ResultCache, cell_key
from repro.sweep.spec import CellSpec, SweepSpec

REPORT_SCHEMA = "repro.sweep/1"


def execute_cell(config: dict) -> dict:
    """Run one cell in this process; returns its result document.

    ``config`` is a :meth:`CellSpec.config` dict.  The cell runs under a
    :class:`~repro.obs.capture.SimCapture`, so the document carries the
    merged ``repro.obs`` snapshot of every simulator the figure built.
    With ``config["blame"]`` set the capture also turns tracing on and
    the document carries the :mod:`repro.obs.critpath` blame totals of
    every job it simulated (tracing is pure recording, so the result
    itself is unchanged).
    """
    from repro.experiments.common import resolve_scale
    from repro.obs.capture import SimCapture

    fn = cell_registry.load(config["figure"])
    scale = resolve_scale(config["scale"])
    started = time.perf_counter()
    with SimCapture(tracing=bool(config.get("blame"))) as sims:
        result = fn(scale, config["seed"], **config.get("params", {}))
    wall_s = time.perf_counter() - started
    doc = {
        "figure": config["figure"],
        "scale": config["scale"],
        "seed": config["seed"],
        "params": dict(config.get("params", {})),
        "result": json.loads(json.dumps(result, sort_keys=True)),
        "metrics": sims.combined_snapshot(),
        "wall_s": wall_s,
    }
    if config.get("blame"):
        blame = sims.combined_blame()["total"]
        doc["blame"] = json.loads(json.dumps(blame, sort_keys=True))
    return doc


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Execute a sweep; returns the aggregated report document.

    ``use_cache=False`` forces re-execution of every cell but still
    *writes* fresh entries when a cache is configured, so a ``--no-cache``
    run repairs a stale cache instead of bypassing it forever.

    A cell that raises ends the sweep with its exception: inline at once,
    in worker processes once every other cell has finished.  Every cell
    that completed before then is cached, so a rerun executes only the
    rest.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    started = time.perf_counter()
    cell_specs = spec.cells()
    records: List[Optional[dict]] = [None] * len(cell_specs)
    pending: List[tuple] = []  # (index, CellSpec, key)
    for index, cell in enumerate(cell_specs):
        key = cell_key(cell.config())
        cached = cache.get(key) if (cache is not None and use_cache) else None
        if cached is not None:
            records[index] = {**cached, "key": key, "cache_hit": True}
            if progress is not None:
                progress(f"{cell.label()}  cached")
        else:
            pending.append((index, cell, key))

    def finish(index: int, cell: CellSpec, key: str, doc: dict) -> None:
        if cache is not None:
            cache.put(key, doc)
        records[index] = {**doc, "key": key, "cache_hit": False}
        if progress is not None:
            progress(f"{cell.label()}  {doc['wall_s']:.1f}s")

    if jobs > 1 and len(pending) > 1:
        failure: Optional[BaseException] = None
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(execute_cell, cell.config()): (index, cell, key)
                for index, cell, key in pending
            }
            # progress streams in completion order; ``records`` is filled
            # by spec index, so the report stays in spec order.  A cell
            # that raises does not stop the others: every cell that
            # completes reaches the cache, and the first failure is
            # raised once the pool has drained.
            for future in as_completed(futures):
                index, cell, key = futures[future]
                try:
                    doc = future.result()
                except Exception as exc:
                    if failure is None:
                        failure = exc
                    if progress is not None:
                        progress(f"{cell.label()}  failed: {exc!r}")
                    continue
                finish(index, cell, key, doc)
        if failure is not None:
            raise failure
    else:
        for index, cell, key in pending:
            finish(index, cell, key, execute_cell(cell.config()))

    cells: List[dict] = [r for r in records if r is not None]
    assert len(cells) == len(cell_specs)
    elapsed = time.perf_counter() - started
    hits = sum(1 for c in cells if c["cache_hit"])
    return {
        "schema": REPORT_SCHEMA,
        "repro_version": repro.__version__,
        "spec": spec.describe(),
        "jobs": jobs,
        "totals": {
            "cells": len(cells),
            "executed": len(cells) - hits,
            "cache_hits": hits,
            "wall_s_sum": sum(c["wall_s"] for c in cells),
            "elapsed_s": elapsed,
        },
        "cells": cells,
        "groups": aggregate_cells(cells),
    }
