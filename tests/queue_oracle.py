"""Reference event loop: a plain sorted list, the engine's heap held to it.

:class:`SortedListLoop` implements the subset of
:class:`repro.sim.engine.Simulator` that event-order tests drive --
``schedule``, ``schedule_at``, ``call_every``, ``run(until)``, ``stop``,
``pending``, ``events_processed`` -- in the most literal way: entries sit
in a list kept sorted by ``(time, seq)``, a cancelled entry stays in
place until it reaches the front, and ``run(until)`` compares ``until``
with the raw front entry, cancelled or not.  Nothing here is fast; it is
only meant to be obviously right.
"""

from __future__ import annotations

import bisect
from typing import Callable, List, Optional, Tuple


class OracleEvent:
    __slots__ = ("callback", "cancelled")

    def __init__(self, callback: Callable[[], None]) -> None:
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class SortedListLoop:
    def __init__(self) -> None:
        self.now = 0.0
        self.events_processed = 0
        self._queue: List[Tuple[float, int, OracleEvent]] = []
        self._seq = 0
        self._stopped = False

    def _push(self, time: float, callback: Callable[[], None]) -> OracleEvent:
        event = OracleEvent(callback)
        bisect.insort(self._queue, (time, self._seq, event))
        self._seq += 1
        return event

    def schedule(self, delay: float, callback: Callable[[], None]) -> OracleEvent:
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self._push(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> OracleEvent:
        return self.schedule(time - self.now, callback)

    def call_every(
        self,
        interval: float,
        callback: Callable[[], None],
        start: Optional[float] = None,
        until: Optional[float] = None,
    ) -> Callable[[], None]:
        """Fire on the exact grid ``origin + n * interval`` up to ``until``."""
        origin = start if start is not None else self.now + interval
        state = {"event": None, "stopped": False, "fired": 0}

        def fire() -> None:
            if state["stopped"]:
                return
            callback()
            state["fired"] += 1
            nxt = origin + state["fired"] * interval
            if until is None or nxt <= until:
                state["event"] = self._push(max(nxt, self.now), fire)

        first = interval if start is None else max(0.0, start - self.now)
        state["event"] = self.schedule(first, fire)

        def cancel() -> None:
            state["stopped"] = True
            state["event"].cancel()

        return cancel

    @property
    def pending(self) -> int:
        return sum(1 for _, _, event in self._queue if not event.cancelled)

    def stop(self) -> None:
        self._stopped = True

    def run(self, until: Optional[float] = None) -> None:
        self._stopped = False
        queue = self._queue
        while not self._stopped:
            if until is not None:
                if not queue:
                    self.now = max(self.now, until)
                    return
                if queue[0][0] > until:
                    self.now = until
                    return
            # the raw front passed the check: drop cancelled entries and
            # run the first live one, wherever it lies
            while queue and queue[0][2].cancelled:
                queue.pop(0)
            if not queue:
                return
            time, _, event = queue.pop(0)
            self.now = max(self.now, time)
            event.callback()
            self.events_processed += 1
