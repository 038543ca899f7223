"""Discrete-event simulation engine.

A :class:`Simulator` owns a priority queue of timestamped events and a
virtual clock.  Everything in the reproduction (task execution, shuffle
transfers, scheduler epochs, SLA probes, VM migrations) is driven by
callbacks scheduled on a single simulator instance, which makes runs
fully deterministic for a given seed.

Event queue
-----------
The queue is a binary heap of plain ``(time, seq, event)`` tuples, so
ordering happens in C tuple comparisons; ``seq`` is unique, so the pop
order is total and the heap never compares two :class:`Event` objects.
Deletion is lazy: a cancelled event keeps its heap entry and is skipped
when popped.  A live-event counter keeps :attr:`Simulator.pending` O(1).
Dead entries are not swept: the run loop's ``until`` bound is checked
against the *raw* queue head, cancelled entries included (see
:meth:`Simulator.run`), and even a 10k-host run peaks at about a
thousand dead entries.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import Observability

#: queue entry: ``(time, seq, event)``.  ``seq`` is unique, so tuple
#: comparison never reaches the event slot.
_Entry = Tuple[float, int, "Event"]


def _callback_names(callback: Callable[[], None]) -> tuple:
    """``(module, qualname)`` of an event callback, for attribution.

    A :meth:`Simulator.call_every` recurrence resolves to the callback
    it runs, so periodic work is billed to its own module, not the
    engine.  Falls back through ``functools.partial``-style wrappers;
    never raises -- odd callables attribute to ``("unknown", <typename>)``.
    """
    callback = getattr(callback, "__wrapped__", callback)
    module = getattr(callback, "__module__", None)
    qualname = getattr(callback, "__qualname__", None)
    if module is None or qualname is None:
        func = getattr(callback, "func", None)
        if module is None:
            module = getattr(func, "__module__", "unknown") or "unknown"
        if qualname is None:
            qualname = (
                getattr(func, "__qualname__", None) or type(callback).__name__
            )
    return module, qualname


def _profiled_call(prof: Any, callback: Callable[[], None]) -> None:
    """Run ``callback`` inside a profiler frame billed to its module.

    Pools and the fabric call completion callbacks directly, not through
    the queue; without a frame of their own, a callback's work (a task's
    stage transition, the JobTracker round it triggers) would be billed
    to the pool or fabric event that drained it.
    """
    module, qualname = _callback_names(callback)
    prof.push(f"{module}:{qualname}", subsystem=module)
    try:
        callback()
    finally:
        prof.pop()


class Event:
    """A scheduled callback.

    The queue orders events by ``(time, seq)``, where ``seq`` is the
    scheduling order: two events scheduled for the same instant fire in
    the order they were scheduled (determinism).

    ``__slots__`` keeps the per-event footprint flat -- at datacenter
    scale the queue holds hundreds of thousands of these.
    """

    __slots__ = ("time", "callback", "cancelled", "owner")

    def __init__(
        self,
        time: float,
        callback: Callable[[], None],
        owner: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        #: back-reference to the owning simulator while the event waits
        #: to run; cleared when it is popped to run, so a late cancel()
        #: cannot corrupt the live counter
        self.owner = owner

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(time={self.time!r}, cancelled={self.cancelled!r})"

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        owner = self.owner
        if owner is not None:
            owner._live -= 1


class Simulator:
    """Event loop with a virtual clock.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned :class:`random.Random`.  All
        stochastic models in the reproduction draw from ``sim.rng`` (or
        children created via :meth:`fork_rng`), never from the global
        ``random`` module, so identical seeds give identical runs.
    """

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self._seed = seed
        #: live and cancelled entries share one heap, so the pop order
        #: and the raw head peek fall out of one total order
        self._heap: List[_Entry] = []
        self._live = 0
        self._seq = itertools.count()
        self._stopped = False
        self.events_processed = 0
        #: wall-time profiler (:class:`repro.obs.prof.Profiler`); None
        #: until :meth:`enable_profiling`.  Profiling only observes the
        #: dispatch in :meth:`_dispatch`.
        self.prof: Optional[Any] = None
        #: observability handle shared by every subsystem on this
        #: simulator; tracing is off until ``obs.enable_tracing()``
        self.obs = Observability(clock=lambda: self.now)
        from repro.obs.capture import register_simulator

        register_simulator(self)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        seq = next(self._seq)
        event = Event(time, callback, self)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute simulation ``time``."""
        return self.schedule(time - self.now, callback)

    def _schedule_abs(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule at an *exact* absolute timestamp.

        Unlike :meth:`schedule_at` there is no ``now``-relative
        round-trip (``now + (time - now)``), so the event fires at
        precisely ``time`` -- what the recurrence grid of
        :meth:`call_every` needs to stay drift-free.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule in the past (time={time})")
        seq = next(self._seq)
        event = Event(time, callback, self)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def call_every(
        self,
        interval: float,
        callback: Callable[[], None],
        start: Optional[float] = None,
        until: Optional[float] = None,
    ) -> Callable[[], None]:
        """Run ``callback`` periodically.

        Firing times form the exact grid ``origin + n * interval``
        (``origin`` is ``start``, or registration time plus one
        interval).  Each next firing is computed from the origin rather
        than the drifting clock, so float accumulation can neither push
        a firing off-grid nor squeeze an extra one in just under
        ``until``.

        Returns a canceller function; calling it stops the recurrence
        after the currently pending firing is cancelled.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        state: Dict[str, Any] = {"event": None, "stopped": False, "fired": 0}
        origin = start if start is not None else self.now + interval

        def fire() -> None:
            if state["stopped"]:
                return
            callback()
            state["fired"] += 1
            nxt = origin + state["fired"] * interval
            if until is None or nxt <= until:
                state["event"] = self._schedule_abs(max(nxt, self.now), fire)

        # profiler attribution bills the firing to the callback's
        # module, not to this closure's
        fire.__wrapped__ = callback  # type: ignore[attr-defined]

        first_delay = interval if start is None else max(0.0, start - self.now)
        state["event"] = self.schedule(first_delay, fire)

        def cancel() -> None:
            state["stopped"] = True
            if state["event"] is not None:
                state["event"].cancel()

        return cancel

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def _pop_live(self) -> Optional[Event]:
        """Pop cancelled entries in key order, then the first live event."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if not event.cancelled:
                event.owner = None
                self._live -= 1
                return event
        return None

    def _dispatch(self, event: Event) -> None:
        """Advance the clock to ``event`` and run its callback.

        The one dispatch tail of :meth:`step` and :meth:`run`: profiling
        hooks the same ``callback()`` call the plain path makes, so a
        profiled run can never drift from a bare one.
        """
        time = event.time
        if time < self.now - 1e-9:
            raise RuntimeError("event queue went backwards in time")
        if time > self.now:
            self.now = time
        prof = self.prof
        if prof is None:
            event.callback()
        else:
            prof.begin_event(*_callback_names(event.callback))
            try:
                event.callback()
            finally:
                prof.end_event()
            if prof.events % prof.gauge_sample_every == 0:
                prof.sample_engine(self)
        self.events_processed += 1

    def step(self) -> bool:
        """Process the next live event.  Returns False when none is left."""
        event = self._pop_live()
        if event is None:
            return False
        self._dispatch(event)
        return True

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> None:
        """Run until the queue drains, or ``until`` is reached.

        The ``until`` bound is checked against the *raw* queue head -- a
        cancelled entry included -- and once an iteration commits, the
        next live event runs even if it lies past ``until``.  That
        head-peek quirk is long-standing queue behaviour that lockstep
        experiment drivers (ramp-up run(until=...) phases) depend on;
        keep it, or same-seed runs change.
        """
        self._stopped = False
        heap = self._heap
        pop_live = self._pop_live
        dispatch = self._dispatch
        processed = 0
        while not self._stopped:
            if processed >= max_events:
                raise RuntimeError(
                    f"exceeded max_events={max_events}; runaway simulation?"
                )
            if until is not None:
                if not heap:
                    self.now = max(self.now, until)
                    return
                if heap[0][0] > until:
                    self.now = until
                    return
            # committed: the first live event runs unconditionally
            event = pop_live()
            if event is None:
                return  # empty, or only cancelled entries remained
            dispatch(event)
            processed += 1

    def stop(self) -> None:
        """Stop :meth:`run` after the current event returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # utilities
    # ------------------------------------------------------------------
    def queue_stats(self) -> Dict[str, Any]:
        """Queue health: ``backend`` (always ``"heap"``), ``depth`` (heap
        entries), ``live`` and ``tombstones`` (cancelled entries not yet
        popped)."""
        depth = len(self._heap)
        return {
            "backend": "heap",
            "depth": depth,
            "live": self._live,
            "tombstones": depth - self._live,
        }

    def enable_profiling(self, profiler: Any) -> None:
        """Attach a :class:`repro.obs.prof.Profiler` to the dispatch
        loop.  It only observes; disable with :meth:`disable_profiling`."""
        if profiler is None:
            raise ValueError("profiler must not be None")
        self.prof = profiler

    def disable_profiling(self) -> None:
        """Detach the profiler."""
        self.prof = None

    def fork_rng(self, label: str) -> random.Random:
        """Create an independent RNG stream derived from the seed.

        Using a label keeps streams stable when unrelated code adds or
        removes draws from ``sim.rng``.
        """
        return random.Random(f"{self._seed}:{label}")

    @property
    def pending(self) -> int:
        """Number of non-cancelled events waiting in the queue.  O(1)."""
        return self._live

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.3f}, pending={self.pending})"
