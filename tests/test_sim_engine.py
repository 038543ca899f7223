"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_schedule_and_run_in_order(sim):
    order = []
    sim.schedule(2.0, lambda: order.append("b"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(3.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fire_in_scheduling_order(sim):
    order = []
    for tag in range(5):
        sim.schedule(1.0, lambda tag=tag: order.append(tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_priority_breaks_ties(sim):
    """There is no priority knob: same-time events fire in scheduling
    order, whichever call scheduled them and wherever they were
    scheduled from."""
    order = []
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule_at(1.0, lambda: order.append("b"))

    def nested():
        order.append("c")
        sim.schedule(0.0, lambda: order.append("e"))

    sim.schedule(1.0, nested)
    sim.schedule(1.0, lambda: order.append("d"))
    sim.run()
    assert order == ["a", "b", "c", "d", "e"]


def test_negative_delay_rejected(sim):
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_cancel_event(sim):
    fired = []
    event = sim.schedule(1.0, lambda: fired.append(1))
    event.cancel()
    sim.run()
    assert fired == []


def test_run_until_stops_clock_midway(sim):
    fired = []
    sim.schedule(5.0, lambda: fired.append(1))
    sim.run(until=2.0)
    assert sim.now == 2.0
    assert fired == []
    sim.run()
    assert fired == [1]


def test_schedule_at_absolute_time(sim):
    times = []
    sim.schedule_at(4.0, lambda: times.append(sim.now))
    sim.run()
    assert times == [4.0]


def test_stop_halts_run(sim):
    seen = []

    def first():
        seen.append("first")
        sim.stop()

    sim.schedule(1.0, first)
    sim.schedule(2.0, lambda: seen.append("second"))
    sim.run()
    assert seen == ["first"]
    sim.run()
    assert seen == ["first", "second"]


def test_call_every_fires_periodically(sim):
    ticks = []
    sim.call_every(1.0, lambda: ticks.append(sim.now), until=5.0)
    sim.run()
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_call_every_cancel(sim):
    ticks = []
    cancel = sim.call_every(1.0, lambda: ticks.append(sim.now))
    sim.schedule(3.5, cancel)
    sim.run()
    assert ticks == [1.0, 2.0, 3.0]


def test_call_every_rejects_nonpositive_interval(sim):
    with pytest.raises(ValueError):
        sim.call_every(0.0, lambda: None)


def test_events_scheduled_during_run_are_processed(sim):
    order = []

    def outer():
        order.append("outer")
        sim.schedule(1.0, lambda: order.append("inner"))

    sim.schedule(1.0, outer)
    sim.run()
    assert order == ["outer", "inner"]
    assert sim.now == 2.0


def test_fork_rng_is_stable_across_instances():
    a = Simulator(seed=7).fork_rng("stream")
    b = Simulator(seed=7).fork_rng("stream")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_fork_rng_streams_are_independent():
    sim = Simulator(seed=7)
    a = sim.fork_rng("one")
    b = sim.fork_rng("two")
    assert [a.random() for _ in range(3)] != [b.random() for _ in range(3)]


def test_determinism_same_seed_same_trace():
    def run(seed):
        sim = Simulator(seed=seed)
        out = []
        sim.call_every(1.0, lambda: out.append(sim.rng.random()), until=5.0)
        sim.run()
        return out

    assert run(1) == run(1)
    assert run(1) != run(2)


def test_pending_counts_live_events(sim):
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending == 2
    event.cancel()
    assert sim.pending == 1


def test_cancel_from_inside_callback(sim):
    fired = []
    later = sim.schedule(2.0, lambda: fired.append("later"))
    sim.schedule(1.0, later.cancel)
    sim.run()
    assert fired == []


def test_cancel_is_idempotent(sim):
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()
    assert sim.pending == 0


def test_call_every_cancel_before_first_fire(sim):
    ticks = []
    cancel = sim.call_every(1.0, lambda: ticks.append(sim.now))
    cancel()
    sim.run()
    assert ticks == []


def test_call_every_canceller_is_idempotent(sim):
    ticks = []
    cancel = sim.call_every(1.0, lambda: ticks.append(sim.now), until=3.0)
    sim.schedule(1.5, cancel)
    sim.schedule(1.6, cancel)
    sim.run()
    assert ticks == [1.0]


def test_call_every_start_param(sim):
    ticks = []
    sim.call_every(1.0, lambda: ticks.append(sim.now), start=3.0, until=5.0)
    sim.run()
    assert ticks == [3.0, 4.0, 5.0]


def test_call_every_restart_after_cancel(sim):
    ticks = []
    cancel = sim.call_every(1.0, lambda: ticks.append(("a", sim.now)))
    sim.schedule(2.5, cancel)

    def restart():
        sim.call_every(1.0, lambda: ticks.append(("b", sim.now)), until=6.0)

    sim.schedule(4.0, restart)
    sim.run()
    assert ticks == [("a", 1.0), ("a", 2.0), ("b", 5.0), ("b", 6.0)]


def test_max_events_guard():
    sim = Simulator()

    def loop():
        sim.schedule(0.0, loop)

    sim.schedule(0.0, loop)
    with pytest.raises(RuntimeError):
        sim.run(max_events=100)


# ----------------------------------------------------------------------
# recurrence grid, lazy deletion, run-until semantics
# ----------------------------------------------------------------------
def test_call_every_thousand_firings_stay_on_grid():
    """Firing times are origin + n*interval computed from the recurrence
    origin -- drifting-clock accumulation would push firings off-grid
    (and move the final one off the exact `until` boundary)."""
    sim = Simulator()
    times = []
    sim.call_every(0.1, lambda: times.append(sim.now), until=100.0)
    sim.run()
    assert len(times) == 1000
    assert times == [0.1 + n * 0.1 for n in range(1000)]
    assert times[-1] == 100.0


def test_call_every_until_boundary_with_start():
    sim = Simulator()
    times = []
    sim.call_every(0.1, lambda: times.append(sim.now), start=0.3, until=1.0)
    sim.run()
    assert times == [0.3 + n * 0.1 for n in range(8)]
    assert times[-1] == 1.0


def test_compaction_reclaims_cancelled_heap_entries():
    """Lazy deletion: a cancelled event keeps its heap entry until the
    run loop pops it; popping reclaims it without firing it."""
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(200)]
    survivors = events[::10]
    for i, event in enumerate(events):
        if i % 10:
            event.cancel()
    assert sim.pending == len(survivors)
    assert sim.queue_stats() == {
        "backend": "heap", "depth": 200, "live": 20, "tombstones": 180,
    }
    fired = []
    for event in survivors:
        event.callback = lambda t=event.time: fired.append(t)
    sim.run()
    assert fired == sorted(e.time for e in survivors)
    assert sim.queue_stats() == {
        "backend": "heap", "depth": 0, "live": 0, "tombstones": 0,
    }
    # popped events drop their queue back-reference, so a late cancel
    # cannot corrupt the live counter
    survivors[0].cancel()
    events[1].cancel()
    assert sim.pending == 0


def test_pending_is_exact_under_cancel_storm():
    sim = Simulator()
    events = [sim.schedule(1.0 + i * 0.01, lambda: None) for i in range(500)]
    for event in events[:499]:
        event.cancel()
    assert sim.pending == 1
    sim.run()
    assert sim.pending == 0


def test_run_until_head_tombstone_commits_next_event():
    """Historical queue semantics: run(until) peeks the raw head.  A
    cancelled entry at the head with time <= until commits a step that
    then executes the next live event even past `until`.  Lockstep
    experiment drivers (ramp-up run(until=...) phases) depend on this,
    so it is load-bearing for same-seed reproducibility."""
    sim = Simulator()
    doomed = sim.schedule(3.0, lambda: None)
    fired = []
    sim.schedule(5.0, lambda: fired.append(sim.now))
    doomed.cancel()
    sim.run(until=4.0)
    assert fired == [5.0]
    assert sim.now == 5.0


def test_run_until_head_tombstone_semantics_survive_compaction():
    """A cancel storm at the head changes nothing about run(until): the
    peek sees the first cancelled entry (t=3.0 <= until), the committed
    iteration pops all 200 of them and runs the live t=5.0 event."""
    sim = Simulator()
    doomed = [sim.schedule(3.0, lambda: None) for _ in range(200)]
    fired = []
    sim.schedule(5.0, lambda: fired.append(sim.now))
    for event in doomed:
        event.cancel()
    assert sim.queue_stats()["tombstones"] == 200
    sim.run(until=4.0)
    assert fired == [5.0]
    assert sim.now == 5.0
    assert sim.events_processed == 1
    assert sim.queue_stats()["depth"] == 0


def test_run_until_stops_before_live_head():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append(sim.now))
    sim.run(until=4.0)
    assert fired == []
    assert sim.now == 4.0
    sim.run()
    assert fired == [5.0]
