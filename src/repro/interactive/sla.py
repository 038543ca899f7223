"""SLA monitoring across interactive services.

The IPS (Phase II) subscribes to this monitor: whenever a service's
latency crosses its SLA the registered handlers fire, carrying enough
context for the Arbiter to act.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.interactive.service import InteractiveService
from repro.sim.engine import Simulator


@dataclass
class SLAEvent:
    """One observed SLA state change."""

    time: float
    service_name: str
    latency_ms: float
    sla_ms: float
    violated: bool


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
        self.events: List[SLAEvent] = []
        self._handlers: List[Callable[[InteractiveService, SLAEvent], None]] = []
        self._violating = {s.name: False for s in self.services}
        self._cancel: Optional[Callable[[], None]] = None

    def on_violation(
        self, handler: Callable[[InteractiveService, SLAEvent], None]
    ) -> None:
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
            violated = service.sla_violated
            was = self._violating[service.name]
            if violated or was != violated:
                event = SLAEvent(
                    time=self.sim.now,
                    service_name=service.name,
                    latency_ms=service.current_latency_ms,
                    sla_ms=service.sla_ms,
                    violated=violated,
                )
                self.events.append(event)
                if violated:
                    obs = self.sim.obs
                    obs.metrics.counter("sla.violations").inc()
                    if obs.tracer.enabled:
                        obs.tracer.instant(
                            f"sla:{service.name}",
                            category="sla",
                            track="sla",
                            latency_ms=event.latency_ms,
                            sla_ms=event.sla_ms,
                        )
                    for handler in self._handlers:
                        handler(service, event)
            self._violating[service.name] = violated

    def violations(self) -> List[SLAEvent]:
        return [e for e in self.events if e.violated]

    def summary(
        self, window_s: Optional[float] = None, now: Optional[float] = None
    ) -> dict:
        """Per-service latency summaries keyed by service name.

        Delegates to each service's
        :meth:`~repro.interactive.service.InteractiveService.latency_summary`,
        so a window with no completed requests is well-defined (count 0,
        all-zero statistics, never NaN) instead of degenerate
        percentiles.
        """
        return {
            service.name: service.latency_summary(window_s=window_s, now=now)
            for service in self.services
        }
