"""Fluid-flow resource pools with weighted max-min fair sharing.

A :class:`ResourcePool` models a single shared resource of a machine --
CPU cores (capacity in core-seconds/second), a disk (MB/s) or a NIC
(MB/s).  Concurrent *activities* (map tasks reading input, reducers
writing output, interactive request processing, migration traffic...)
register an entry carrying an amount of work; the pool continuously
divides its capacity among entries using weighted max-min fairness with
per-entry rate caps, and fires a completion callback when an entry's
work drains.

This fluid model is the standard technique for simulating contention in
cluster simulators: rather than slicing time, the pool recomputes rates
only when membership or parameters change and schedules the next
completion analytically, which keeps runs fast and exactly
deterministic.

Efficiency
----------
An entry's ``efficiency`` models virtualization overhead: the entry
*occupies* the resource at its allocated rate but makes useful progress
at ``rate * efficiency``.  That matches how a VM doing I/O through a
hypervisor holds the disk longer for the same logical bytes.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from repro.sim.engine import Event, Simulator, _profiled_call

_EPS = 1e-9


class PoolEntry:
    """One activity's claim on a :class:`ResourcePool`."""

    __slots__ = (
        "pool",
        "work_remaining",
        "weight",
        "cap",
        "efficiency",
        "on_complete",
        "rate",
        "done",
        "label",
    )

    def __init__(
        self,
        pool: "ResourcePool",
        work: float,
        weight: float,
        cap: float,
        efficiency: float,
        on_complete: Optional[Callable[[], None]],
        label: str = "",
    ) -> None:
        self.pool = pool
        self.work_remaining = work
        self.weight = weight
        self.cap = cap
        self.efficiency = efficiency
        self.on_complete = on_complete
        self.rate = 0.0
        self.done = False
        self.label = label

    # -- rate parameters: set only inside a pool batch -----------------
    def set_weight(self, weight: float) -> None:
        if weight < 0:
            raise ValueError("weight must be non-negative")
        pool = self.pool
        if not pool._in_batch:
            raise RuntimeError(f"pool {pool.name!r}: set_weight outside a batch")
        if weight != self.weight:
            self.weight = weight
            pool._batch_dirty = True

    def set_cap(self, cap: float) -> None:
        if cap < 0:
            raise ValueError("cap must be non-negative")
        pool = self.pool
        if not pool._in_batch:
            raise RuntimeError(f"pool {pool.name!r}: set_cap outside a batch")
        if cap != self.cap:
            self.cap = cap
            pool._batch_dirty = True

    def set_efficiency(self, efficiency: float) -> None:
        if not 0 < efficiency <= 1.0 + _EPS:
            raise ValueError("efficiency must be in (0, 1]")
        pool = self.pool
        if not pool._in_batch:
            raise RuntimeError(f"pool {pool.name!r}: set_efficiency outside a batch")
        if efficiency != self.efficiency:
            self.efficiency = efficiency
            pool._batch_dirty = True

    def add_work(self, extra: float) -> None:
        """Append more work to an in-flight entry (e.g. streamed bytes)."""
        if extra < 0:
            raise ValueError("extra work must be non-negative")
        self.pool._advance()
        self.work_remaining += extra
        self.pool._rebalance()

    @property
    def progress_rate(self) -> float:
        """Useful work per second at the current allocation."""
        return self.rate * self.efficiency

    def eta(self) -> float:
        """Seconds until completion at the current rate (inf if stalled)."""
        if self.work_remaining <= _EPS:
            return 0.0
        if self.progress_rate <= _EPS:
            return math.inf
        return self.work_remaining / self.progress_rate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PoolEntry({self.label!r}, left={self.work_remaining:.2f}, "
            f"rate={self.rate:.2f})"
        )


def waterfill(capacity: float, weights: List[float], caps: List[float]) -> List[float]:
    """Weighted max-min fair allocation with per-entry caps.

    Distributes ``capacity`` proportionally to ``weights`` but never
    gives an entry more than its cap; freed capacity is redistributed
    among the remaining entries.  Pure function, exercised directly by
    property-based tests.
    """
    n = len(weights)
    rates = [0.0] * n
    if capacity <= _EPS or n == 0:
        return rates
    active = [i for i in range(n) if weights[i] > _EPS and caps[i] > _EPS]
    remaining = capacity
    while active:
        total_w = 0.0
        for i in active:
            total_w += weights[i]
        if total_w <= _EPS:
            break
        per_w = remaining / total_w
        capped = [
            i for i in active if caps[i] - rates[i] <= per_w * weights[i] + _EPS
        ]
        if not capped:
            for i in active:
                rates[i] += per_w * weights[i]
            remaining = 0.0
            break
        for i in capped:
            remaining -= caps[i] - rates[i]
            rates[i] = caps[i]
        if len(capped) == len(active):
            break
        capped_set = set(capped)
        active = [i for i in active if i not in capped_set]
        if remaining <= _EPS:
            break
    return rates


class ResourcePool:
    """A shared resource divided among entries by weighted fair sharing."""

    __slots__ = (
        "sim",
        "capacity",
        "name",
        "entries",
        "_last_update",
        "_completion_event",
        "busy_integral",
        "_created_at",
        "_in_batch",
        "_batch_dirty",
    )

    def __init__(self, sim: Simulator, capacity: float, name: str = "pool") -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        #: live entries in start order, an ordered set (values unused):
        #: removal is O(1), and an empty dict is one object the cyclic
        #: collector does not track
        self.entries: Dict[PoolEntry, None] = {}
        self._last_update = sim.now
        self._completion_event: Optional[Event] = None
        # integral of allocated rate over time, for utilization metrics
        self.busy_integral = 0.0
        self._created_at = sim.now
        #: True while a begin_batch()/end_batch() parameter update is in
        #: flight, the only time entry rate parameters may change
        self._in_batch = False
        #: something inside the current batch actually changed an input
        #: of the allocation; a clean batch skips the closing rebalance
        self._batch_dirty = False

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def add(
        self,
        work: float,
        on_complete: Optional[Callable[[], None]] = None,
        weight: float = 1.0,
        cap: float = math.inf,
        efficiency: float = 1.0,
        label: str = "",
    ) -> PoolEntry:
        """Register an activity with ``work`` units to perform.

        ``work=math.inf`` creates an open-ended entry (used for demand
        sources like interactive services) that never completes and must
        be removed explicitly.
        """
        if work < 0:
            raise ValueError("work must be non-negative")
        if not 0 < efficiency <= 1.0 + _EPS:
            raise ValueError("efficiency must be in (0, 1]")
        self._advance()
        entry = PoolEntry(self, work, weight, cap, efficiency, on_complete, label)
        if work <= _EPS:
            # zero work completes immediately (but via the event loop so
            # callbacks never re-enter the caller)
            entry.done = True
            if on_complete is not None:
                self.sim.schedule(0.0, on_complete)
            return entry
        self.entries[entry] = None
        self._rebalance()
        return entry

    def remove(self, entry: PoolEntry) -> None:
        """Withdraw an entry (e.g. task killed or paused).  Progress up to
        now is applied first; if that completes the entry, it finishes
        here as usual, as in :meth:`detach`."""
        if entry.done or entry not in self.entries:
            return
        self._advance()
        if entry.done:
            return
        del self.entries[entry]
        entry.done = True
        entry.rate = 0.0
        self._rebalance()

    def detach(self, entry: PoolEntry) -> None:
        """Withdraw an in-flight entry *without* finishing it, so another
        pool can :meth:`adopt` it (a VM's work following the guest in a
        live migration).  Progress up to now is applied first; if that
        completes the entry, it finishes here as usual and stays done.
        """
        self._advance()
        if entry.done:
            return
        del self.entries[entry]
        entry.rate = 0.0
        self._rebalance()

    def adopt(self, entry: PoolEntry) -> None:
        """Take over an entry :meth:`detach`-ed from another pool, with
        its remaining work, parameters, label and completion callback."""
        self._advance()
        entry.pool = self
        self.entries[entry] = None
        self._rebalance()

    def set_capacity(self, capacity: float) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._advance()
        self.capacity = capacity
        self._rebalance()

    def begin_batch(self) -> None:
        """Start a batched parameter update.

        Applies accrued progress once, then lets ``set_weight`` /
        ``set_cap`` / ``set_efficiency`` record new values (they raise
        ``RuntimeError`` outside a batch); :meth:`end_batch` recomputes
        rates once for the whole round.  Refreshing a context with
        dozens of in-flight entries this way costs one rebalance instead
        of O(entries), which is what keeps 10k-host refresh storms flat.
        """
        if self._in_batch:
            raise RuntimeError(f"pool {self.name!r} is already in a batch")
        self._batch_dirty = False
        # order matters: completions fired by this advance free capacity,
        # which _advance records by marking the batch dirty
        self._advance()
        self._in_batch = True

    def end_batch(self) -> None:
        """Finish a batched update: one rebalance for the round.

        A *clean* batch -- every setter wrote back the value already in
        place and no entry completed during the opening advance -- skips
        the rebalance entirely: rates are a pure function of unchanged
        inputs, and the already-scheduled completion event still points
        at the right absolute instant (progress and deadline shrink in
        lockstep while rates hold).
        """
        if not self._in_batch:
            raise RuntimeError(f"pool {self.name!r} is not in a batch")
        self._in_batch = False
        if self._batch_dirty:
            self._batch_dirty = False
            self._rebalance()

    @property
    def total_rate(self) -> float:
        return sum(e.rate for e in self.entries)

    @property
    def utilization(self) -> float:
        """Instantaneous fraction of capacity in use."""
        if self.capacity <= _EPS:
            return 0.0
        return min(1.0, self.total_rate / self.capacity)

    def mean_utilization(self) -> float:
        """Average utilization since pool creation."""
        self._advance()
        self._rebalance()
        elapsed = self.sim.now - self._created_at
        if elapsed <= _EPS or self.capacity <= _EPS:
            return 0.0
        return self.busy_integral / (elapsed * self.capacity)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Apply progress accrued since the last rate computation."""
        now = self.sim.now
        dt = now - self._last_update
        if dt <= 0:
            self._last_update = now
            return
        finished: List[PoolEntry] = []
        total = 0.0
        inf = math.inf
        for entry in self.entries:
            rate = entry.rate
            total += rate
            if rate <= _EPS or entry.work_remaining == inf:
                continue
            done = rate * entry.efficiency * dt
            entry.work_remaining = max(0.0, entry.work_remaining - done)
            if entry.work_remaining <= _EPS:
                finished.append(entry)
        self.busy_integral += total * dt
        self._last_update = now
        if not finished:
            return
        # membership is about to change: any enclosing batch must
        # rebalance to redistribute the freed capacity
        self._batch_dirty = True
        prof = self.sim.prof
        for entry in finished:
            if entry.done:
                # a sibling's completion callback in this same batch
                # already removed it (e.g. a finished attempt killing
                # its speculative twin) -- removing again would raise
                continue
            del self.entries[entry]
            entry.done = True
            entry.rate = 0.0
            if entry.on_complete is not None:
                if prof is None:
                    entry.on_complete()
                else:
                    _profiled_call(prof, entry.on_complete)

    def _rebalance(self) -> None:
        """Recompute fair-share rates and schedule the next completion."""
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        entries = self.entries
        if not entries:
            return
        next_eta = math.inf
        if len(entries) == 1:
            # single-entry fast path: the common case for per-task CPU
            # and disk pools; same arithmetic as one waterfill round
            (entry,) = entries
            capacity = self.capacity
            weight = entry.weight
            cap = entry.cap
            if capacity <= _EPS or weight <= _EPS or cap <= _EPS:
                rate = 0.0
            else:
                share = (capacity / weight) * weight
                rate = cap if cap <= share + _EPS else share
            entry.rate = rate
            work = entry.work_remaining
            if work <= _EPS:
                next_eta = 0.0
            else:
                progress = rate * entry.efficiency
                if progress > _EPS:
                    next_eta = work / progress
        else:
            rates = waterfill(
                self.capacity,
                [e.weight for e in entries],
                [e.cap for e in entries],
            )
            for entry, rate in zip(entries, rates):
                entry.rate = rate
                work = entry.work_remaining
                if work <= _EPS:
                    eta = 0.0
                else:
                    progress = rate * entry.efficiency
                    eta = work / progress if progress > _EPS else math.inf
                if eta < next_eta:
                    next_eta = eta
        if next_eta != math.inf:
            self._completion_event = self.sim.schedule(
                max(0.0, next_eta), self._on_completion_tick
            )

    def _on_completion_tick(self) -> None:
        self._completion_event = None
        self._advance()
        self._rebalance()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResourcePool({self.name!r}, cap={self.capacity}, "
            f"n={len(self.entries)}, util={self.utilization:.2f})"
        )
