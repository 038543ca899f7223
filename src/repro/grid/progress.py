"""Streaming partial aggregates and ``repro.grid/1`` progress frames.

While a study runs, the coordinator feeds every completed cell into a
:class:`GridProgress`, which maintains incremental statistics -- count,
running mean, exact p50/p95 -- per metric path per group (figure x
scale x params), and periodically emits JSON frames shaped like the ``repro.obs.live`` telemetry stream (``type: "frame"``,
monotonically increasing ``seq``).  The frames go to any frame sink
(:class:`repro.obs.live.JsonlFrameSink`, a list, a callback), so
``repro serve`` can render a live study-progress panel and ``repro
grid status`` can read the latest line of the JSONL file.

Frames are telemetry, not results: they carry wall-clock timestamps and
partial statistics, and are deliberately excluded from the determinism
contract (the canonical report is).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.grid.protocol import PROTOCOL
from repro.sim.trace import percentile
from repro.sweep.aggregate import _group_key, flatten


class StreamingStats:
    """Incremental n/mean/p50/p95 over a stream of samples.

    Keeps every sample and a running sum; percentiles are computed
    exactly (:func:`repro.sim.trace.percentile`) when asked for, which
    is once per progress frame.  The study state keeps every completed
    cell record for the final report anyway, so a constant-space
    estimator here would save no memory.
    """

    __slots__ = ("_values", "_sum")

    def __init__(self) -> None:
        self._values: List[float] = []
        self._sum = 0.0

    def push(self, value: float) -> None:
        self._values.append(value)
        self._sum += value

    @property
    def n(self) -> int:
        return len(self._values)

    @property
    def mean(self) -> float:
        return self._sum / len(self._values) if self._values else 0.0

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile (``sim.trace.percentile``)."""
        return percentile(self._values, q)

    def snapshot(self) -> Dict[str, float]:
        return {
            "n": self.n,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
        }


class GridProgress:
    """Per-group streaming aggregates + frame emission for one study."""

    def __init__(
        self,
        study: str,
        total_cells: int,
        sink: Optional[Callable[[dict], None]] = None,
        max_paths_per_group: int = 12,
        seq_start: int = 0,
    ) -> None:
        self.study = study
        self.total_cells = total_cells
        self.sink = sink
        self.max_paths_per_group = max_paths_per_group
        self.seq = seq_start
        self.wall_s = StreamingStats()
        # group key -> ("identity" dict, {path: StreamingStats})
        self._groups: Dict[tuple, dict] = {}
        self._order: List[tuple] = []

    def observe(self, record: dict) -> None:
        """Fold one completed cell record into the running aggregates."""
        key = _group_key(record)
        group = self._groups.get(key)
        if group is None:
            group = {
                "figure": record["figure"],
                "scale": record["scale"],
                "params": dict(record.get("params", {})),
                "paths": {},
            }
            self._groups[key] = group
            self._order.append(key)
        for path, value in flatten(record.get("result", {})).items():
            stats = group["paths"].get(path)
            if stats is None:
                stats = group["paths"][path] = StreamingStats()
            stats.push(value)
        if "wall_s" in record:
            self.wall_s.push(record["wall_s"])

    def group_snapshots(self) -> List[dict]:
        """Partial per-group statistics, capped for frame size."""
        out = []
        for key in self._order:
            group = self._groups[key]
            paths = sorted(group["paths"])
            shown = paths[: self.max_paths_per_group]
            out.append(
                {
                    "figure": group["figure"],
                    "scale": group["scale"],
                    "params": group["params"],
                    "metrics": {
                        p: group["paths"][p].snapshot() for p in shown
                    },
                    "paths_total": len(paths),
                }
            )
        return out

    def frame(self, ts: float, counts: Dict[str, int],
              done: bool = False,
              workers: Optional[List[dict]] = None,
              queue_age: Optional[Dict[str, float]] = None) -> dict:
        """Build (and emit, when a sink is set) one progress frame.

        ``workers`` (per-worker fleet-health snapshots from
        :meth:`repro.grid.state.StudyState.worker_snapshots`) and
        ``queue_age`` (queued-unit age percentiles) are optional so old
        frame producers/tests stay valid; consumers must treat them as
        absent-able.
        """
        frame = {
            "type": "frame",
            "schema": PROTOCOL,
            "seq": self.seq,
            "ts": round(ts, 3),
            "study": self.study,
            "grid": dict(counts, done=done),
            "wall_s": self.wall_s.snapshot(),
            "groups": self.group_snapshots(),
        }
        if workers is not None:
            frame["workers"] = workers
        if queue_age is not None:
            frame["queue_age"] = queue_age
        self.seq += 1
        if self.sink is not None:
            self.sink(frame)
        return frame
