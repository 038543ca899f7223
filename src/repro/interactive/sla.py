"""SLA monitoring across interactive services.

The IPS (Phase II) subscribes to this monitor: on every poll that finds
a service's latency above its SLA, the registered handlers fire with
that service.  Each such poll counts one ``sla.violations`` and, when
tracing, leaves an ``sla:<service>`` instant; the monitor keeps no log
of its own.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.interactive.service import InteractiveService
from repro.sim.engine import Simulator


class SLAMonitor:
    """Polls services and fires handlers on SLA violations."""

    def __init__(
        self,
        sim: Simulator,
        services: List[InteractiveService],
        poll_s: float = 5.0,
    ) -> None:
        if poll_s <= 0:
            raise ValueError("poll interval must be positive")
        self.sim = sim
        self.services = list(services)
        self.poll_s = poll_s
        self._handlers: List[Callable[[InteractiveService], None]] = []
        self._cancel: Optional[Callable[[], None]] = None

    def on_violation(self, handler: Callable[[InteractiveService], None]) -> None:
        """Register a handler fired on every poll while a service is
        above its SLA (the IPS wants continuous pressure, not an edge)."""
        self._handlers.append(handler)

    def start(self) -> None:
        if self._cancel is not None:
            raise RuntimeError("monitor already started")
        self._cancel = self.sim.call_every(self.poll_s, self._poll)

    def stop(self) -> None:
        if self._cancel is not None:
            self._cancel()
            self._cancel = None

    def _poll(self) -> None:
        for service in self.services:
            if not service.sla_violated:
                continue
            obs = self.sim.obs
            obs.metrics.counter("sla.violations").inc()
            if obs.tracer.enabled:
                obs.tracer.instant(
                    f"sla:{service.name}",
                    category="sla",
                    track="sla",
                    latency_ms=service.current_latency_ms,
                    sla_ms=service.sla_ms,
                )
            for handler in self._handlers:
                handler(service)
