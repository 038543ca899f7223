"""Discrete-event simulation engine.

A :class:`Simulator` owns a priority queue of timestamped events and a
virtual clock.  Everything in the reproduction (task execution, shuffle
transfers, scheduler epochs, SLA probes, VM migrations) is driven by
callbacks scheduled on a single simulator instance, which makes runs
fully deterministic for a given seed.

Event queue
-----------
The queue is a binary heap with lazy deletion.  Entries are plain
``(time, priority, seq, event)`` tuples so ordering happens in C tuple
comparisons; ``seq`` is unique, so the pop order is total.  Cancelled
entries stay in place as tombstones, and an in-place compaction swaps
their Event objects for bare ``(time, priority, seq, None)`` ghost keys
when tombstones outnumber live events -- heavy cancel traffic (flow
completion events, speculative-kill races) would otherwise leave the
queue mostly dead weight.

Bookkeeping is O(1): a live-event counter (so :attr:`Simulator.pending`
never scans) and a tombstone counter that triggers compaction.
Compaction reclaims the Event objects and their callback closures but
keeps the ghost keys in place: the run loop's ``until`` bound is checked
against the *raw* queue head including cancelled entries (see
:meth:`Simulator.run`), so forgetting a ghost's position would change
observable behaviour.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import Observability

#: queue entry: ``(time, priority, seq, event-or-None)``.  ``None`` in
#: the event slot marks a ghost key left behind by compaction.  ``seq``
#: is unique, so tuple comparison never reaches the payload slot.
_Entry = Tuple[float, int, int, Optional["Event"]]

#: minimum tombstone count before cancel-triggered compaction kicks in;
#: below this the sweep costs more than the tombstones
COMPACT_MIN = 64


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


class Event:
    """A scheduled callback.

    Events are ordered by ``(time, priority, seq)``; ``seq`` is a
    monotonically increasing tiebreaker so that two events scheduled for
    the same instant fire in scheduling order (determinism).

    ``__slots__`` keeps the per-event footprint flat -- at datacenter
    scale the queue holds hundreds of thousands of these.
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled", "owner")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        cancelled: bool = False,
        owner: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = cancelled
        #: back-reference to the owning simulator while the event sits
        #: in its queue; cleared on pop so a late cancel() cannot
        #: corrupt the live/tombstone counters
        self.owner = owner

    def sort_key(self) -> Tuple[float, int, int]:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Event") -> bool:
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "Event") -> bool:
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "Event") -> bool:
        return self.sort_key() >= other.sort_key()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.sort_key() == other.sort_key()

    # like the old ``@dataclass(order=True)`` Event: unhashable
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(time={self.time!r}, priority={self.priority!r}, "
            f"seq={self.seq!r}, cancelled={self.cancelled!r})"
        )

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        owner = self.owner
        if owner is not None:
            owner._note_cancelled()


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
        #: one heap holds live events, tombstones (cancelled, Event
        #: still attached) and ghost keys (cancelled, Event reclaimed
        #: by :meth:`_compact`), so the pop order and the raw head peek
        #: fall out of one total order
        self._heap: List[_Entry] = []
        self._live = 0
        self._tombstones = 0
        self._ghosts = 0
        self._seq = itertools.count()
        self._stopped = False
        self.events_processed = 0
        #: per-subsystem event counts (callback module -> events); None
        #: until :meth:`enable_event_accounting` -- the bench profiler
        #: turns it on, normal runs keep the hot loop check-free
        self._event_counts: Optional[Dict[str, int]] = None
        #: wall-time profiler (:class:`repro.obs.prof.Profiler`); None
        #: until :meth:`enable_profiling`.  Like accounting, profiling
        #: only observes the loop -- the fast path stays check-free
        #: because :meth:`run` picks the instrumented loop up front.
        self.prof: Optional[Any] = None
        #: observability handle shared by every subsystem on this
        #: simulator; tracing is off until ``obs.enable_tracing()``
        self.obs = Observability(clock=lambda: self.now)
        from repro.obs.capture import register_simulator

        register_simulator(self)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        seq = next(self._seq)
        event = Event(time, priority, seq, callback, owner=self)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` at absolute simulation ``time``."""
        return self.schedule(time - self.now, callback, priority)

    def _schedule_abs(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> Event:
        """Schedule at an *exact* absolute timestamp.

        Unlike :meth:`schedule_at` there is no ``now``-relative
        round-trip (``now + (time - now)``), so the event fires at
        precisely ``time`` -- what the recurrence grid of
        :meth:`call_every` needs to stay drift-free.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule in the past (time={time})")
        seq = next(self._seq)
        event = Event(time, priority, seq, callback, owner=self)
        heapq.heappush(self._heap, (time, priority, seq, event))
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

        # attribution (accounting, profiling) bills the firing to the
        # callback's module, not to this closure's
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
    def _note_cancelled(self) -> None:
        """Counter upkeep for an in-queue cancellation (Event.cancel)."""
        self._live -= 1
        self._tombstones += 1
        if self._tombstones > self._live and self._tombstones >= COMPACT_MIN:
            self._compact()

    def _compact(self) -> None:
        """Swap cancelled entries for ghost keys, in place.

        A ghost key carries the exact sort key of the entry it replaces,
        so the heap invariant holds without a re-heapify, and pop order
        and the raw head peek are untouched.
        """
        prof = self.prof
        if prof is not None:
            prof.push("engine.compact", subsystem="repro.sim.engine")
        heap = self._heap
        evicted = 0
        for i, entry in enumerate(heap):
            event = entry[3]
            if event is not None and event.cancelled:
                heap[i] = (entry[0], entry[1], entry[2], None)
                event.owner = None
                evicted += 1
        self._ghosts += evicted
        self._tombstones -= evicted
        if prof is not None:
            prof.note_compaction(evicted, prof.pop())

    def _pop_live(self) -> Optional[Event]:
        """Pop dead entries in key order, then the first live event."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if event is None:
                self._ghosts -= 1
                continue
            event.owner = None
            if event.cancelled:
                self._tombstones -= 1
                continue
            self._live -= 1
            return event
        return None

    def step(self) -> bool:
        """Process the next event.  Returns False when queue is empty.

        Tombstones (cancelled entries or ghost keys) are popped
        transparently in key order until the first live event.  There is
        exactly one dispatch tail -- accounting and profiling hook the
        same ``callback()`` call the plain path uses, so an instrumented
        run can never drift from a bare one.
        """
        event = self._pop_live()
        if event is None:
            return False
        time = event.time
        if time < self.now - 1e-9:
            raise RuntimeError("event queue went backwards in time")
        if time > self.now:
            self.now = time
        counts = self._event_counts
        prof = self.prof
        if counts is not None or prof is not None:
            module, qualname = _callback_names(event.callback)
            if counts is not None:
                counts[module] = counts.get(module, 0) + 1
        if prof is not None:
            prof.begin_event(module, qualname)
        try:
            event.callback()
        finally:
            if prof is not None:
                prof.end_event()
        self.events_processed += 1
        if prof is not None and prof.events % prof.gauge_sample_every == 0:
            prof.sample_engine(self)
        return True

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> None:
        """Run until the queue drains, or ``until`` is reached.

        The ``until`` bound is checked against the *raw* queue head -- a
        cancelled tombstone included -- and once an iteration commits,
        the next live event runs even if it lies past ``until``.  That
        head-peek quirk is long-standing queue behaviour that lockstep
        experiment drivers (ramp-up run(until=...) phases) depend on;
        keep it, or same-seed runs change.
        """
        self._stopped = False
        heap = self._heap
        if self._event_counts is not None or self.prof is not None:
            # accounting/profiling pass (bench/prof runs): per-event
            # bookkeeping lives in step(), no need to be lean here
            processed = 0
            while not self._stopped:
                if processed >= max_events:
                    raise RuntimeError(
                        f"exceeded max_events={max_events}; runaway simulation?"
                    )
                if not heap:
                    if until is not None:
                        self.now = max(self.now, until)
                    return
                if until is not None and heap[0][0] > until:
                    self.now = until
                    return
                if not self.step():
                    return
                processed += 1
            return
        # fast path: accounting branch hoisted out of the loop; the pop
        # itself (tombstone/ghost skipping included) is _pop_live,
        # shared with step(), so the two paths cannot diverge
        pop_live = self._pop_live
        processed = 0
        try:
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
                    return  # empty, or only tombstones remained
                time = event.time
                if time < self.now - 1e-9:
                    raise RuntimeError("event queue went backwards in time")
                if time > self.now:
                    self.now = time
                event.callback()
                processed += 1
        finally:
            self.events_processed += processed

    def stop(self) -> None:
        """Stop :meth:`run` after the current event returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # utilities
    # ------------------------------------------------------------------
    def queue_stats(self) -> Dict[str, Any]:
        """Queue health: ``backend`` (always ``"heap"``), ``depth``
        (entries still carrying Event objects: live + tombstones),
        ``live``, ``tombstones`` and ``ghost_keys``."""
        return {
            "backend": "heap",
            "depth": self._live + self._tombstones,
            "live": self._live,
            "tombstones": self._tombstones,
            "ghost_keys": self._ghosts,
        }

    def enable_event_accounting(self) -> None:
        """Start counting processed events per callback module.

        Idempotent.  Pure bookkeeping on the event loop -- it cannot
        change simulation behaviour, only observe it.
        """
        if self._event_counts is None:
            self._event_counts = {}

    def disable_event_accounting(self) -> None:
        """Stop accounting and drop the counts; :meth:`run` returns to
        the fast path.  Idempotent."""
        self._event_counts = None

    def reset_event_accounting(self) -> None:
        """Zero the counts but keep accounting on -- lets a capture
        reuse one simulator across bench passes without the first
        pass's events double-counting into the second.  No-op while
        accounting is off."""
        if self._event_counts is not None:
            self._event_counts = {}

    def enable_profiling(self, profiler: Any) -> None:
        """Attach a :class:`repro.obs.prof.Profiler` to the dispatch
        loop.  Like accounting this only observes; disable with
        :meth:`disable_profiling`."""
        if profiler is None:
            raise ValueError("profiler must not be None")
        self.prof = profiler

    def disable_profiling(self) -> None:
        """Detach the profiler; :meth:`run` returns to the fast path."""
        self.prof = None

    @property
    def event_counts(self) -> Dict[str, int]:
        """Events processed per callback module (empty until enabled)."""
        return dict(self._event_counts or {})

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
