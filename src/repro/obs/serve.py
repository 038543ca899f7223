"""``repro serve``: stdlib live dashboard over a frame stream.

A :class:`FrameServer` (``http.server`` + threads, zero dependencies)
serves a recorded -- or still-growing -- JSONL frame file written by
:class:`repro.obs.live.JsonlFrameSink` -- the ``repro.live/1``
telemetry frames of the live driver:

- ``/``          single-file HTML dashboard (utilization, SLA, queue
                 and blame panels fed by Server-Sent Events)
- ``/events``    SSE stream: replays known frames (optionally paced to
                 virtual time), then follows the file for new ones
- ``/snapshot``  latest frame as JSON (CI smoke target)
- ``/frames``    every known frame as a JSON array
- ``/healthz``   liveness probe

The server only ever *reads* the frame file, so it can run against a
live simulation writing the same path from another process.  A
malformed line in it (see :func:`~repro.obs.export.read_jsonl_from`)
is reported, never skipped: ``/snapshot`` and ``/frames`` answer 500
with ``{"error": "<path>:<lineno>: ..."}``, and ``/events`` sends the
same object as an ``event: error`` and closes.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional
from urllib.parse import parse_qs, urlparse

from repro.obs.export import read_jsonl_from


class FrameStore:
    """Thread-safe incremental reader of a JSONL frame file."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._frames: List[dict] = []
        self._offset = 0
        self._lock = threading.Lock()
        self.refresh()

    def refresh(self) -> int:
        """Pick up new complete lines, by the line rule of
        :func:`~repro.obs.export.read_jsonl_from`; returns frames added."""
        with self._lock:
            try:
                events, self._offset = read_jsonl_from(self.path, self._offset)
            except FileNotFoundError:
                return 0
            frames = [e for e in events if e["type"] == "frame"]
            self._frames.extend(frames)
            return len(frames)

    def frames(self, since_seq: int = -1) -> List[dict]:
        with self._lock:
            return [f for f in self._frames if f.get("seq", 0) > since_seq]

    @property
    def latest(self) -> Optional[dict]:
        with self._lock:
            return self._frames[-1] if self._frames else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._frames)


def _make_handler(store: FrameStore, follow: bool, rate: float,
                  poll_s: float):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, fmt, *args):  # quiet by default
            pass

        def _send(self, code: int, body: bytes, ctype: str) -> None:
            self.send_response(code)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(body)))
            self.send_header("Cache-Control", "no-store")
            self.end_headers()
            self.wfile.write(body)

        def _send_json(self, obj, code: int = 200) -> None:
            self._send(code, json.dumps(obj, sort_keys=True).encode("utf-8"),
                       "application/json")

        def _refreshed(self) -> bool:
            """Refresh the store; on a malformed line, answer 500 naming
            it and return False."""
            try:
                store.refresh()
            except ValueError as exc:
                self._send_json({"error": str(exc)}, code=500)
                return False
            return True

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            try:
                self._route()
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away mid-write

        def _route(self) -> None:
            url = urlparse(self.path)
            if url.path in ("/", "/index.html"):
                self._send(200, DASHBOARD_HTML.encode("utf-8"),
                           "text/html; charset=utf-8")
            elif url.path == "/healthz":
                self._send(200, b"ok\n", "text/plain")
            elif url.path == "/snapshot":
                if self._refreshed():
                    latest = store.latest
                    if latest is None:
                        self._send_json({"error": "no frames yet"}, code=503)
                    else:
                        self._send_json(latest)
            elif url.path == "/frames":
                if self._refreshed():
                    self._send_json(store.frames())
            elif url.path == "/events":
                query = parse_qs(url.query)
                since = int(query.get("since", ["-1"])[0])
                self._stream(since)
            else:
                self._send_json({"error": f"no route {url.path}"}, code=404)

        def _sse(self, frame: dict) -> None:
            payload = json.dumps(frame, sort_keys=True)
            self.wfile.write(
                f"id: {frame.get('seq', 0)}\ndata: {payload}\n\n".encode("utf-8")
            )
            self.wfile.flush()

        def _stream(self, since: int) -> None:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-store")
            self.end_headers()
            self.wfile.write(b"retry: 2000\n\n")
            try:
                self._replay(since)
            except ValueError as exc:  # the store met a malformed line
                payload = json.dumps({"error": str(exc)}, sort_keys=True)
                self.wfile.write(f"event: error\ndata: {payload}\n\n".encode("utf-8"))
                self.wfile.flush()
                self.close_connection = True

        def _replay(self, since: int) -> None:
            """Send the known frames after ``since``, then (``follow``)
            the new ones as they land."""
            store.refresh()
            last_ts: Optional[float] = None
            last_seq = since
            for frame in store.frames(since):
                if rate > 0 and last_ts is not None:
                    gap = (frame.get("ts", 0.0) - last_ts) / rate
                    if gap > 0:
                        time.sleep(min(gap, 5.0))
                self._sse(frame)
                last_ts = frame.get("ts")
                last_seq = max(last_seq, frame.get("seq", last_seq))
            if not follow:
                self.wfile.write(b"event: end\ndata: {}\n\n")
                self.wfile.flush()
                return
            idle = 0.0
            while not getattr(self.server, "_shutting_down", False):
                if store.refresh() or store.frames(last_seq):
                    for frame in store.frames(last_seq):
                        self._sse(frame)
                        last_seq = max(last_seq, frame.get("seq", last_seq))
                    idle = 0.0
                    continue
                time.sleep(poll_s)
                idle += poll_s
                if idle >= 15.0:
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                    idle = 0.0

    return Handler


class FrameServer:
    """Serve a frame file on a background thread (tests, ``repro serve``).

    ``rate`` paces SSE replay in virtual seconds per wall second
    (0 = replay instantly); ``follow`` keeps event streams open and
    tails the file for frames a live run is still writing.
    """

    def __init__(
        self,
        frames_path: str,
        host: str = "127.0.0.1",
        port: int = 0,
        follow: bool = False,
        rate: float = 0.0,
        poll_s: float = 0.25,
    ) -> None:
        self.store = FrameStore(frames_path)
        handler = _make_handler(self.store, follow, rate, poll_s)
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._httpd._shutting_down = False
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "FrameServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.1},
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until KeyboardInterrupt."""
        try:
            self._httpd.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        self._httpd._shutting_down = True
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


# ----------------------------------------------------------------------
# the dashboard (single file, no dependencies)
# ----------------------------------------------------------------------
DASHBOARD_HTML = r"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro live</title>
<meta name="viewport" content="width=device-width, initial-scale=1">
<style>
.viz-root {
  color-scheme: light;
  --page:           #f9f9f7;
  --surface-1:      #fcfcfb;
  --text-primary:   #0b0b0b;
  --text-secondary: #52514e;
  --text-muted:     #898781;
  --grid:           #e1e0d9;
  --baseline:       #c3c2b7;
  --border:         rgba(11,11,11,0.10);
  --series-1:       #2a78d6;
  --series-2:       #eb6834;
  --series-3:       #1baf7a;
  --seq-300:        #6da7ec;
  --seq-500:        #256abf;
  --status-good:    #0ca30c;
  --status-serious: #ec835a;
  --status-critical:#d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --page:           #0d0d0d;
    --surface-1:      #1a1a19;
    --text-primary:   #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted:     #898781;
    --grid:           #2c2c2a;
    --baseline:       #383835;
    --border:         rgba(255,255,255,0.10);
    --series-1:       #3987e5;
    --series-2:       #d95926;
    --series-3:       #199e70;
    --seq-300:        #5598e7;
    --seq-500:        #256abf;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --page:           #0d0d0d;
  --surface-1:      #1a1a19;
  --text-primary:   #ffffff;
  --text-secondary: #c3c2b7;
  --text-muted:     #898781;
  --grid:           #2c2c2a;
  --baseline:       #383835;
  --border:         rgba(255,255,255,0.10);
  --series-1:       #3987e5;
  --series-2:       #d95926;
  --series-3:       #199e70;
  --seq-300:        #5598e7;
  --seq-500:        #256abf;
}
* { box-sizing: border-box; }
body.viz-root {
  margin: 0; padding: 16px;
  background: var(--page); color: var(--text-primary);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  font-size: 14px;
}
header { display: flex; align-items: baseline; gap: 12px; margin-bottom: 12px; }
header h1 { font-size: 16px; font-weight: 600; margin: 0; }
#status { color: var(--text-secondary); font-size: 12px; }
.tiles { display: grid; grid-template-columns: repeat(auto-fit, minmax(130px, 1fr));
         gap: 8px; margin-bottom: 12px; }
.tile { background: var(--surface-1); border: 1px solid var(--border);
        border-radius: 6px; padding: 8px 12px; }
.tile .v { font-size: 22px; font-weight: 600; }
.tile .k { font-size: 11px; color: var(--text-secondary); margin-top: 2px; }
.grid2 { display: grid; grid-template-columns: repeat(auto-fit, minmax(360px, 1fr));
         gap: 12px; }
.panel { background: var(--surface-1); border: 1px solid var(--border);
         border-radius: 6px; padding: 10px 12px; position: relative; }
.panel h2 { font-size: 13px; font-weight: 600; margin: 0 0 6px; }
.panel h2 .muted { color: var(--text-muted); font-weight: 400; }
.panel canvas { width: 100%; height: 180px; display: block; }
.legend { display: flex; flex-wrap: wrap; gap: 10px; margin-top: 6px;
          font-size: 11px; color: var(--text-secondary); }
.legend .sw { display: inline-block; width: 10px; height: 10px;
              border-radius: 2px; margin-right: 4px; vertical-align: -1px; }
.chips { display: flex; flex-wrap: wrap; gap: 6px; min-height: 24px; }
.chip { border: 1px solid var(--status-serious); color: var(--text-primary);
        border-radius: 12px; padding: 2px 10px; font-size: 12px; }
.chip.ok { border-color: var(--status-good); color: var(--text-secondary); }
.tooltip { position: absolute; pointer-events: none; display: none;
           background: var(--surface-1); border: 1px solid var(--border);
           border-radius: 4px; padding: 4px 8px; font-size: 11px;
           color: var(--text-primary); box-shadow: 0 2px 8px rgba(0,0,0,.15);
           white-space: nowrap; z-index: 10; }
details { margin-top: 14px; color: var(--text-secondary); }
table { border-collapse: collapse; font-size: 12px; margin-top: 6px; }
th, td { padding: 3px 10px; text-align: right;
         font-variant-numeric: tabular-nums;
         border-bottom: 1px solid var(--grid); }
th { color: var(--text-secondary); font-weight: 600; }
</style>
</head>
<body class="viz-root">
<header>
  <h1>repro live telemetry</h1>
  <span id="status">connecting&hellip;</span>
</header>
<div class="tiles" id="tiles"></div>
<div class="grid2">
  <div class="panel"><h2>Cluster utilization</h2>
    <canvas id="util"></canvas><div class="legend" id="util-legend"></div>
    <div class="tooltip" id="util-tip"></div></div>
  <div class="panel"><h2>Interactive latency (windowed p95, ms)</h2>
    <canvas id="sla"></canvas><div class="legend" id="sla-legend"></div>
    <div class="tooltip" id="sla-tip"></div></div>
  <div class="panel"><h2>Scheduler queues <span id="queues-policy" class="muted"></span></h2>
    <canvas id="queues"></canvas><div class="legend" id="queues-legend"></div>
    <div class="tooltip" id="queues-tip"></div></div>
  <div class="panel"><h2>Critical-path blame (total s)</h2>
    <canvas id="blame"></canvas></div>
</div>
<div class="panel" style="margin-top:12px"><h2>Chaos faults</h2>
  <div class="chips" id="chaos"></div></div>
<details><summary>Frame table (latest 50)</summary>
  <table id="table"><thead><tr>
    <th>t (s)</th><th>cpu</th><th>io</th><th>jobs act</th><th>jobs done</th>
    <th>pending</th><th>p95 ms</th><th>faults</th>
  </tr></thead><tbody></tbody></table></details>
<script>
"use strict";
const frames = [];
const MAX_POINTS = 1500;
const css = name =>
  getComputedStyle(document.body).getPropertyValue(name).trim();

function seriesColors() {
  return [css('--series-1'), css('--series-2'), css('--series-3')];
}

function decimate(list) {
  if (list.length <= MAX_POINTS) return list;
  const stride = Math.ceil(list.length / MAX_POINTS);
  return list.filter((_, i) => i % stride === 0 || i === list.length - 1);
}

function fmt(v, digits = 2) {
  return (v === undefined || v === null) ? '-' : Number(v).toFixed(digits);
}

// -- one reusable line chart ------------------------------------------
function lineChart(canvasId, tipId) {
  const canvas = document.getElementById(canvasId);
  const tip = document.getElementById(tipId);
  const state = { series: [], yMax: 1, yLabel: '', refs: [] };
  function draw() {
    const dpr = window.devicePixelRatio || 1;
    const w = canvas.clientWidth, h = canvas.clientHeight;
    canvas.width = w * dpr; canvas.height = h * dpr;
    const g = canvas.getContext('2d');
    g.scale(dpr, dpr);
    g.clearRect(0, 0, w, h);
    const padL = 44, padR = 8, padT = 8, padB = 20;
    const pw = w - padL - padR, ph = h - padT - padB;
    const pts = state.series.flatMap(s => s.points);
    if (!pts.length) {
      g.fillStyle = css('--text-muted');
      g.fillText('waiting for frames…', padL, h / 2);
      return;
    }
    const t0 = Math.min(...state.series.map(s => s.points[0][0]));
    const t1 = Math.max(...state.series.map(s => s.points[s.points.length-1][0]));
    const span = Math.max(1e-9, t1 - t0);
    let yMax = state.yMax;
    for (const s of state.series)
      for (const [, v] of s.points) if (v > yMax) yMax = v;
    for (const r of state.refs) if (r.y > yMax) yMax = r.y;
    yMax *= 1.05;
    const X = t => padL + ((t - t0) / span) * pw;
    const Y = v => padT + ph - (v / yMax) * ph;
    // grid + axis
    g.strokeStyle = css('--grid'); g.lineWidth = 1;
    g.fillStyle = css('--text-muted');
    g.font = '10px system-ui'; g.textAlign = 'right';
    for (let i = 0; i <= 4; i++) {
      const v = (yMax * i) / 4, y = Y(v);
      g.beginPath(); g.moveTo(padL, y); g.lineTo(w - padR, y); g.stroke();
      g.fillText(v >= 100 ? v.toFixed(0) : v.toFixed(v >= 1 ? 1 : 2),
                 padL - 5, y + 3);
    }
    g.strokeStyle = css('--baseline');
    g.beginPath(); g.moveTo(padL, padT + ph); g.lineTo(w - padR, padT + ph);
    g.stroke();
    g.textAlign = 'center';
    for (let i = 0; i <= 4; i++) {
      const t = t0 + (span * i) / 4;
      g.fillText(t.toFixed(0) + 's', X(t), h - 6);
    }
    // reference lines (labeled, e.g. the SLA threshold)
    for (const r of state.refs) {
      g.strokeStyle = r.color; g.setLineDash([5, 4]);
      g.beginPath(); g.moveTo(padL, Y(r.y)); g.lineTo(w - padR, Y(r.y));
      g.stroke(); g.setLineDash([]);
      g.fillStyle = r.color; g.textAlign = 'left';
      g.fillText(r.label, padL + 4, Y(r.y) - 4);
    }
    // series: 2px lines
    state.series.forEach(s => {
      g.strokeStyle = s.color; g.lineWidth = 2;
      g.beginPath();
      s.points.forEach(([t, v], i) =>
        i ? g.lineTo(X(t), Y(v)) : g.moveTo(X(t), Y(v)));
      g.stroke();
    });
    state.X = X; state.Y = Y; state.t0 = t0; state.t1 = t1;
  }
  canvas.addEventListener('mousemove', ev => {
    if (!state.series.length || !state.X) return;
    const rect = canvas.getBoundingClientRect();
    const mx = ev.clientX - rect.left;
    let best = null;
    for (const s of state.series)
      for (const [t, v] of s.points) {
        const d = Math.abs(state.X(t) - mx);
        if (!best || d < best.d) best = { d, t, v, name: s.name };
      }
    if (!best || best.d > 40) { tip.style.display = 'none'; return; }
    tip.style.display = 'block';
    tip.style.left = Math.min(mx + 12, rect.width - 120) + 'px';
    tip.style.top = (ev.clientY - rect.top + 4) + 'px';
    tip.textContent =
      `${best.name} @ ${best.t.toFixed(1)}s: ${fmt(best.v)}`;
  });
  canvas.addEventListener('mouseleave', () => tip.style.display = 'none');
  return { state, draw };
}

const utilChart = lineChart('util', 'util-tip');
const slaChart = lineChart('sla', 'sla-tip');
const queueChart = lineChart('queues', 'queues-tip');

function legend(id, series) {
  document.getElementById(id).innerHTML = series.map(s =>
    `<span><span class="sw" style="background:${s.color}"></span>${s.name}</span>`
  ).join('');
}

function drawBlame() {
  const canvas = document.getElementById('blame');
  const dpr = window.devicePixelRatio || 1;
  const w = canvas.clientWidth, h = canvas.clientHeight;
  canvas.width = w * dpr; canvas.height = h * dpr;
  const g = canvas.getContext('2d');
  g.scale(dpr, dpr);
  const last = frames[frames.length - 1];
  const total = last && last.blame && last.blame.total_s || {};
  const rows = Object.entries(total).filter(([, v]) => v > 0)
    .sort((a, b) => b[1] - a[1]).slice(0, 8);
  g.font = '11px system-ui';
  if (!rows.length) {
    g.fillStyle = css('--text-muted');
    g.fillText('no blame data (run the driver with blame on)', 10, h / 2);
    return;
  }
  const max = rows[0][1];
  const rowH = Math.min(22, (h - 8) / rows.length);
  const labelW = 130;
  rows.forEach(([cat, v], i) => {
    const y = 6 + i * rowH;
    g.fillStyle = css('--text-secondary');
    g.textAlign = 'right';
    g.fillText(cat, labelW - 6, y + rowH / 2 + 3);
    // single-hue sequential: magnitude, not identity
    g.fillStyle = i === 0 ? css('--seq-500') : css('--seq-300');
    const bw = Math.max(2, (w - labelW - 60) * (v / max));
    g.fillRect(labelW, y + 2, bw, rowH - 6);
    g.fillStyle = css('--text-primary');
    g.textAlign = 'left';
    g.fillText(fmt(v, 1) + 's', labelW + bw + 5, y + rowH / 2 + 3);
  });
}

function tile(v, k) {
  return `<div class="tile"><div class="v">${v}</div><div class="k">${k}</div></div>`;
}

function redraw() {
  const view = decimate(frames);
  const [c1, c2, c3] = seriesColors();
  const last = frames[frames.length - 1];
  if (!last) return;

  const util = view.filter(f => f.util && f.util.cluster);
  utilChart.state.series = [
    { name: 'native cpu', color: c1,
      points: util.map(f => [f.ts, (f.util.tiers.native || {}).cpu || 0]) },
    { name: 'virtual cpu', color: c2,
      points: util.map(f => [f.ts, (f.util.tiers.virtual || {}).cpu || 0]) },
    { name: 'cluster io', color: c3,
      points: util.map(f => [f.ts, f.util.cluster.io || 0]) },
  ];
  utilChart.state.yMax = 1.0;
  utilChart.draw();
  legend('util-legend', utilChart.state.series);

  const svcNames = Object.keys(last.sla || {}).sort().slice(0, 3);
  slaChart.state.series = svcNames.map((name, i) => ({
    name: name + ' p95', color: [c1, c2, c3][i],
    points: view.filter(f => f.sla && f.sla[name])
      .map(f => [f.ts, f.sla[name].p95_ms]),
  }));
  slaChart.state.refs = svcNames.length ? [{
    y: last.sla[svcNames[0]].sla_ms,
    color: css('--status-critical'),
    label: '⚠ SLA ' + last.sla[svcNames[0]].sla_ms + 'ms',
  }] : [];
  slaChart.state.yMax = 10;
  slaChart.draw();
  legend('sla-legend', slaChart.state.series);

  const q = view.filter(f => f.queues && 'active_jobs' in f.queues);
  queueChart.state.series = [
    { name: 'active jobs', color: c1,
      points: q.map(f => [f.ts, f.queues.active_jobs]) },
    { name: 'pending tasks', color: c2,
      points: q.map(f => [f.ts, f.queues.pending_maps + f.queues.pending_reduces]) },
    { name: 'running attempts', color: c3,
      points: q.map(f => [f.ts, f.queues.running_attempts]) },
  ];
  queueChart.state.yMax = 2;
  queueChart.draw();
  legend('queues-legend', queueChart.state.series);
  const policy = (last.queues || {}).policy;
  document.getElementById('queues-policy').textContent =
    policy ? `— policy: ${policy}` : '';

  drawBlame();

  const chaos = last.chaos || {};
  const chips = (chaos.active || []).map(f =>
    `<span class="chip">⚠ ${f.kind} @ ${f.target}</span>`);
  document.getElementById('chaos').innerHTML = chips.length
    ? chips.join('')
    : '<span class="chip ok">✓ no active faults</span>';

  const svc0 = svcNames.length ? last.sla[svcNames[0]] : null;
  document.getElementById('tiles').innerHTML = [
    tile(fmt(last.ts, 0) + 's', 'virtual time'),
    tile(frames.length, 'frames'),
    tile((last.queues || {}).active_jobs ?? '-', 'active jobs'),
    tile((last.queues || {}).finished_jobs ?? '-', 'jobs finished'),
    tile(fmt((last.util && last.util.cluster.cpu || 0) * 100, 0) + '%',
         'cluster cpu'),
    tile(svc0 ? fmt(svc0.p95_ms, 0) + 'ms' : '-', 'latency p95'),
    tile((chaos.active || []).length, 'active faults'),
  ].join('');

  const tbody = document.querySelector('#table tbody');
  tbody.innerHTML = frames.slice(-50).map(f => {
    const s = svcNames.length && f.sla && f.sla[svcNames[0]];
    return `<tr><td>${fmt(f.ts, 1)}</td>` +
      `<td>${fmt(f.util && f.util.cluster.cpu)}</td>` +
      `<td>${fmt(f.util && f.util.cluster.io)}</td>` +
      `<td>${(f.queues || {}).active_jobs ?? '-'}</td>` +
      `<td>${(f.queues || {}).finished_jobs ?? '-'}</td>` +
      `<td>${f.queues ? f.queues.pending_maps + f.queues.pending_reduces : '-'}</td>` +
      `<td>${s ? fmt(s.p95_ms, 0) : '-'}</td>` +
      `<td>${((f.chaos || {}).active || []).length}</td></tr>`;
  }).join('');
}

let pending = false;
function scheduleRedraw() {
  if (pending) return;
  pending = true;
  requestAnimationFrame(() => { pending = false; redraw(); });
}

const statusEl = document.getElementById('status');
function connect() {
  const since = frames.length ? frames[frames.length - 1].seq : -1;
  const source = new EventSource('/events?since=' + since);
  source.onmessage = ev => {
    frames.push(JSON.parse(ev.data));
    statusEl.textContent =
      `live · ${frames.length} frames · t=${fmt(frames[frames.length-1].ts, 0)}s`;
    scheduleRedraw();
  };
  source.addEventListener('end', () => {
    source.close();
    statusEl.textContent = `replay complete · ${frames.length} frames`;
  });
  source.onerror = ev => {
    if (ev.data) {  // the server's `event: error`: a malformed frame line
      source.close();
      statusEl.textContent = `error · ${JSON.parse(ev.data).error}`;
    } else {
      statusEl.textContent = `reconnecting… (${frames.length} frames)`;
    }
  };
}
connect();
window.addEventListener('resize', scheduleRedraw);
window.matchMedia('(prefers-color-scheme: dark)')
  .addEventListener('change', scheduleRedraw);
</script>
</body>
</html>
"""
