"""Exporters: Chrome trace-event JSON, JSONL event log, text summary.

All exporters consume the same canonical event dicts produced by
:func:`collect_events`:

- ``{"type": "span", "id", "parent", "name", "cat", "track", "ts",
  "dur", "args"}``
- ``{"type": "instant", "name", "cat", "track", "ts", "args"}``
- ``{"type": "sample", "series", "ts", "value"}`` (gauge history and
  collector time series)
- ``{"type": "counter", "name", "value"}`` (final counter totals)

Times are seconds of *virtual* clock.  :func:`chrome_trace` converts to
the Chrome trace-event format (microsecond timestamps, ``X``/``i``/``C``
phases) loadable in ``chrome://tracing`` or https://ui.perfetto.dev;
:func:`write_jsonl` / :func:`read_jsonl` give a lossless structured log
that round-trips through JSON lines.  :func:`read_jsonl_from` holds the
one rule every reader of an event or frame file follows.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability

#: Chrome trace-event phases the validator accepts
_CHROME_PHASES = {"X", "B", "E", "i", "I", "C", "M", "b", "e", "n"}


# ----------------------------------------------------------------------
# canonical events
# ----------------------------------------------------------------------
def collect_events(obs: "Observability") -> List[dict]:
    """Flatten an :class:`Observability` into canonical event dicts."""
    now = obs.now()
    events: List[dict] = []
    for span in obs.tracer.spans:
        events.append(
            {
                "type": "span",
                "id": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "cat": span.category,
                "track": span.track,
                "ts": span.start,
                "dur": span.duration(now),
                "args": dict(span.args, **({"unfinished": True} if span.open else {})),
            }
        )
    for instant in obs.tracer.instants:
        events.append(
            {
                "type": "instant",
                "name": instant["name"],
                "cat": instant["cat"],
                "track": instant["track"],
                "ts": instant["ts"],
                "args": dict(instant["args"]),
            }
        )
    traces = obs.metrics.traces
    for name in traces.names():
        for t, v in traces[name]:
            events.append({"type": "sample", "series": name, "ts": t, "value": v})
    for name, value in obs.metrics.counters().items():
        events.append({"type": "counter", "name": name, "value": value})
    return events


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
def chrome_trace(events: List[dict]) -> dict:
    """Chrome trace-event document from canonical events.

    Tracks become threads of one ``repro-sim`` process; span nesting is
    rendered by time containment within a track, which is how the
    begin/end pairs of this simulator behave.
    """
    tracks = sorted(
        {e["track"] for e in events if e["type"] in ("span", "instant")}
    )
    tids = {track: i + 1 for i, track in enumerate(tracks)}
    out: List[dict] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "repro-sim"}}
    ]
    for track, tid in tids.items():
        out.append(
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
             "args": {"name": track}}
        )
        out.append(
            {"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": tid,
             "args": {"sort_index": tid}}
        )
    for event in events:
        kind = event["type"]
        if kind == "span":
            out.append(
                {
                    "name": event["name"],
                    "cat": event["cat"] or "span",
                    "ph": "X",
                    "ts": event["ts"] * 1e6,
                    "dur": event["dur"] * 1e6,
                    "pid": 1,
                    "tid": tids[event["track"]],
                    "args": dict(event["args"], span_id=event["id"],
                                 parent=event["parent"]),
                }
            )
        elif kind == "instant":
            out.append(
                {
                    "name": event["name"],
                    "cat": event["cat"] or "instant",
                    "ph": "i",
                    "s": "t",
                    "ts": event["ts"] * 1e6,
                    "pid": 1,
                    "tid": tids[event["track"]],
                    "args": dict(event["args"]),
                }
            )
        elif kind == "sample":
            out.append(
                {
                    "name": event["series"],
                    "cat": "metric",
                    "ph": "C",
                    "ts": event["ts"] * 1e6,
                    "pid": 1,
                    "args": {"value": event["value"]},
                }
            )
        # final counter totals have no timeline representation
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def validate_chrome_trace(doc: object) -> int:
    """Check ``doc`` against the Chrome trace-event schema.

    Returns the number of trace events; raises :class:`ValueError` on
    the first structural problem.  Used by tests and the CI smoke step.
    """
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("not a Chrome trace: missing 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {i} is not an object")
        for key in ("name", "ph", "pid"):
            if key not in event:
                raise ValueError(f"event {i} missing required key {key!r}")
        if event["ph"] not in _CHROME_PHASES:
            raise ValueError(f"event {i} has unknown phase {event['ph']!r}")
        if event["ph"] in ("X", "i", "C") and "ts" not in event:
            raise ValueError(f"event {i} ({event['ph']}) missing 'ts'")
        if event["ph"] == "X" and "dur" not in event:
            raise ValueError(f"event {i} (X) missing 'dur'")
    return len(events)


def write_chrome_trace(path: str, obs: "Observability") -> int:
    """Write the Chrome trace JSON; returns the event count."""
    doc = chrome_trace(collect_events(obs))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])


# ----------------------------------------------------------------------
# JSONL structured log
# ----------------------------------------------------------------------
def write_jsonl(path: str, obs: "Observability") -> int:
    """One canonical event per line; returns the line count."""
    events = collect_events(obs)
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event) + "\n")
    return len(events)


def read_jsonl_from(path: str, offset: int = 0) -> Tuple[List[dict], int]:
    """The events of ``path`` from byte ``offset`` on, and the next offset.

    The JSONL line rule, which ``repro trace`` (with or without
    ``--follow``) and ``repro serve`` all read through: a line counts
    once its newline is written, so an unterminated last line -- one a
    live run is still writing -- is not returned yet, and the offset
    returned points at its start.  A complete line that is not a JSON
    object with a ``type`` raises :class:`ValueError` naming
    ``path:lineno``.  Blank lines are skipped.
    """
    with open(path, "rb") as fh:
        fh.seek(offset)
        chunk = fh.read()
    end = chunk.rfind(b"\n") + 1
    events: List[dict] = []
    for index, line in enumerate(chunk[:end].split(b"\n")[:-1]):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except ValueError as exc:
            raise _bad_line(path, offset, index, f"bad JSON line: {exc}") from exc
        if not isinstance(event, dict) or "type" not in event:
            raise _bad_line(path, offset, index, "not a canonical event")
        events.append(event)
    return events, offset + end


def _bad_line(path: str, offset: int, index: int, problem: str) -> ValueError:
    """``path:lineno: problem`` for the ``index``-th line after ``offset``."""
    with open(path, "rb") as fh:
        lineno = fh.read(offset).count(b"\n") + index + 1
    return ValueError(f"{path}:{lineno}: {problem}")


def read_jsonl(path: str) -> List[dict]:
    """Load the events of a JSONL log written by :func:`write_jsonl`."""
    return read_jsonl_from(path)[0]


# ----------------------------------------------------------------------
# plain-text summary
# ----------------------------------------------------------------------
def summarize_events(events: List[dict]) -> str:
    """Human-readable digest of a canonical event list."""
    from repro.metrics.report import format_table

    by_cat: Dict[str, List[dict]] = {}
    for event in events:
        if event["type"] == "span":
            by_cat.setdefault(event["cat"] or "span", []).append(event)
    sections: List[str] = []
    if by_cat:
        rows = []
        for cat, spans in sorted(by_cat.items()):
            durs = [s["dur"] for s in spans]
            rows.append(
                [cat, len(spans), sum(durs), sum(durs) / len(durs), max(durs)]
            )
        sections.append(
            format_table(
                ["category", "spans", "total_s", "mean_s", "max_s"], rows,
                title="spans by category",
            )
        )
    instants = [e for e in events if e["type"] == "instant"]
    if instants:
        counts: Dict[str, int] = {}
        for event in instants:
            counts[event["cat"] or "instant"] = counts.get(event["cat"] or "instant", 0) + 1
        sections.append(
            format_table(["category", "events"],
                         [[c, n] for c, n in sorted(counts.items())],
                         title="instant events")
        )
    counters = [e for e in events if e["type"] == "counter"]
    if counters:
        sections.append(
            format_table(["counter", "value"],
                         [[e["name"], e["value"]] for e in counters],
                         title="counters")
        )
    samples = [e for e in events if e["type"] == "sample"]
    if samples:
        series: Dict[str, int] = {}
        for event in samples:
            series[event["series"]] = series.get(event["series"], 0) + 1
        sections.append(
            format_table(["series", "samples"],
                         [[s, n] for s, n in sorted(series.items())],
                         title="time series")
        )
    frames = [e for e in events if e["type"] == "frame"]
    if frames:
        from repro.obs.live import summarize_frames

        sections.append("live frames\n" + summarize_frames(frames))
    if not sections:
        return "(empty trace)"
    return "\n\n".join(sections)


def top_spans(events: List[dict], n: int = 10) -> str:
    """Table of the ``n`` slowest spans per category.

    Hand tool for critical-path digging: the spans dominating each
    category are usually the ones worth explaining (or blaming via
    :mod:`repro.obs.critpath`).  Deterministic ordering: duration
    descending, then start time and span id.
    """
    from repro.metrics.report import format_table

    by_cat: Dict[str, List[dict]] = {}
    for event in events:
        if event["type"] == "span":
            by_cat.setdefault(event["cat"] or "span", []).append(event)
    if not by_cat:
        return "(no spans)"
    sections: List[str] = []
    for cat in sorted(by_cat):
        worst = sorted(
            by_cat[cat], key=lambda e: (-e["dur"], e["ts"], e["id"])
        )[: max(1, n)]
        rows = [
            [e["name"], e["track"], e["ts"], e["dur"]] for e in worst
        ]
        sections.append(
            format_table(
                ["span", "track", "start_s", "dur_s"], rows,
                title=f"slowest {cat} spans",
            )
        )
    return "\n\n".join(sections)


def write_metrics_json(path: str, obs: "Observability") -> None:
    """Dump the metrics registry snapshot as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obs.metrics.snapshot(), fh, indent=2, sort_keys=True)
