"""Tests for the fair-share resource pool."""

import math

import pytest

from repro.sim.pool import ResourcePool, waterfill


def test_single_entry_full_capacity(sim):
    pool = ResourcePool(sim, 10.0)
    done = []
    pool.add(100.0, on_complete=lambda: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(10.0)]


def test_two_entries_share_equally(sim):
    pool = ResourcePool(sim, 10.0)
    done = {}
    pool.add(50.0, on_complete=lambda: done.setdefault("a", sim.now))
    pool.add(50.0, on_complete=lambda: done.setdefault("b", sim.now))
    sim.run()
    assert done["a"] == pytest.approx(10.0)
    assert done["b"] == pytest.approx(10.0)


def test_freed_capacity_redistributes(sim):
    pool = ResourcePool(sim, 10.0)
    done = {}
    pool.add(50.0, on_complete=lambda: done.setdefault("short", sim.now))
    pool.add(100.0, on_complete=lambda: done.setdefault("long", sim.now))
    sim.run()
    # both run at 5 until t=10; the long one then gets all 10:
    # remaining 50 work at rate 10 -> finishes at 15
    assert done["short"] == pytest.approx(10.0)
    assert done["long"] == pytest.approx(15.0)


def test_cap_limits_rate(sim):
    pool = ResourcePool(sim, 10.0)
    done = []
    pool.add(10.0, on_complete=lambda: done.append(sim.now), cap=2.0)
    sim.run()
    assert done == [pytest.approx(5.0)]


def test_capped_entry_leaves_capacity_for_others(sim):
    pool = ResourcePool(sim, 10.0)
    done = {}
    pool.add(20.0, on_complete=lambda: done.setdefault("capped", sim.now), cap=2.0)
    pool.add(80.0, on_complete=lambda: done.setdefault("free", sim.now))
    sim.run()
    assert done["capped"] == pytest.approx(10.0)
    assert done["free"] == pytest.approx(10.0)  # gets the other 8/s


def test_weights_split_proportionally(sim):
    pool = ResourcePool(sim, 12.0)
    done = {}
    pool.add(40.0, on_complete=lambda: done.setdefault("heavy", sim.now), weight=3.0)
    pool.add(40.0, on_complete=lambda: done.setdefault("light", sim.now), weight=1.0)
    sim.run()
    # heavy: 9/s -> 40/9 = 4.44s; light then speeds up
    assert done["heavy"] == pytest.approx(40.0 / 9.0)
    assert done["heavy"] < done["light"]


def test_efficiency_slows_progress_but_occupies_capacity(sim):
    pool = ResourcePool(sim, 10.0)
    done = []
    pool.add(50.0, on_complete=lambda: done.append(sim.now), efficiency=0.5)
    sim.run()
    assert done == [pytest.approx(10.0)]


def test_zero_work_completes_via_event_loop(sim):
    pool = ResourcePool(sim, 10.0)
    done = []
    entry = pool.add(0.0, on_complete=lambda: done.append(True))
    assert entry.done
    assert done == []  # not yet: callback goes through the queue
    sim.run()
    assert done == [True]


def test_remove_entry_stops_progress(sim):
    pool = ResourcePool(sim, 10.0)
    done = []
    entry = pool.add(100.0, on_complete=lambda: done.append(True))
    sim.schedule(1.0, lambda: pool.remove(entry))
    sim.run()
    assert done == []
    assert entry.done
    assert entry.work_remaining == pytest.approx(90.0)


def test_open_ended_entry_never_completes(sim):
    pool = ResourcePool(sim, 10.0)
    entry = pool.add(math.inf, cap=4.0)
    sim.run(until=10.0)
    assert not entry.done
    assert pool.busy_integral == pytest.approx(0.0)  # no advance happened yet
    pool._advance()
    assert pool.busy_integral == pytest.approx(40.0)


def test_set_capacity_rebalances(sim):
    pool = ResourcePool(sim, 10.0)
    done = []
    pool.add(100.0, on_complete=lambda: done.append(sim.now))
    sim.schedule(5.0, lambda: pool.set_capacity(50.0))
    sim.run()
    # 50 done at t=5, remaining 50 at 50/s -> t=6
    assert done == [pytest.approx(6.0)]


def test_add_work_extends_entry(sim):
    pool = ResourcePool(sim, 10.0)
    done = []
    entry = pool.add(50.0, on_complete=lambda: done.append(sim.now))
    sim.schedule(2.0, lambda: entry.add_work(30.0))
    sim.run()
    assert done == [pytest.approx(8.0)]


def test_utilization_tracks_rates(sim):
    pool = ResourcePool(sim, 10.0)
    pool.add(math.inf, cap=5.0)
    assert pool.utilization == pytest.approx(0.5)


def test_mean_utilization_integrates(sim):
    pool = ResourcePool(sim, 10.0)
    pool.add(50.0)  # busy 5s at full rate
    sim.run(until=10.0)
    assert pool.mean_utilization() == pytest.approx(0.5)


def test_entry_eta(sim):
    pool = ResourcePool(sim, 10.0)
    entry = pool.add(50.0)
    assert entry.eta() == pytest.approx(5.0)


def test_invalid_arguments(sim):
    pool = ResourcePool(sim, 10.0)
    with pytest.raises(ValueError):
        pool.add(-1.0)
    with pytest.raises(ValueError):
        pool.add(1.0, efficiency=0.0)
    with pytest.raises(ValueError):
        pool.add(1.0, efficiency=1.5)
    with pytest.raises(ValueError):
        ResourcePool(sim, -1.0)
    entry = pool.add(5.0)
    with pytest.raises(ValueError):
        entry.set_cap(-1.0)
    with pytest.raises(ValueError):
        entry.set_weight(-1.0)


# ----------------------------------------------------------------------
# waterfill (pure function)
# ----------------------------------------------------------------------
def test_waterfill_equal_weights():
    assert waterfill(10.0, [1, 1], [math.inf, math.inf]) == [5.0, 5.0]


def test_waterfill_respects_caps_and_redistributes():
    rates = waterfill(10.0, [1, 1], [2.0, math.inf])
    assert rates[0] == pytest.approx(2.0)
    assert rates[1] == pytest.approx(8.0)


def test_waterfill_weighted():
    rates = waterfill(12.0, [3, 1], [math.inf, math.inf])
    assert rates == [pytest.approx(9.0), pytest.approx(3.0)]


def test_waterfill_zero_capacity():
    assert waterfill(0.0, [1, 1], [math.inf, math.inf]) == [0.0, 0.0]


def test_waterfill_zero_weight_gets_nothing():
    rates = waterfill(10.0, [0, 1], [math.inf, math.inf])
    assert rates == [0.0, pytest.approx(10.0)]


def test_waterfill_all_capped_leaves_slack():
    rates = waterfill(10.0, [1, 1], [2.0, 3.0])
    assert rates == [pytest.approx(2.0), pytest.approx(3.0)]


def test_same_instant_finish_callback_removes_sibling(sim):
    """Two entries drain in the same _advance batch; the first one's
    completion callback removes the second (the finished-attempt-kills-
    speculative-twin race).  The removal must not raise and the
    sibling's on_complete must not fire."""
    pool = ResourcePool(sim, 10.0)
    calls = []
    entries = {}

    def first_done():
        calls.append("first")
        pool.remove(entries["second"])

    entries["first"] = pool.add(50.0, on_complete=first_done)
    entries["second"] = pool.add(
        50.0, on_complete=lambda: calls.append("second")
    )
    sim.run()
    assert calls == ["first"]
    assert entries["second"].done
    assert entries["second"].rate == 0.0
    assert list(pool.entries) == []


def test_detach_and_adopt_move_an_entry_between_pools(sim):
    """An entry detached from one pool and adopted by another keeps its
    progress, parameters, label and callback, and the new pool removes
    it: the handle its owner holds stays valid."""
    slow = ResourcePool(sim, 2.0, name="slow")
    fast = ResourcePool(sim, 10.0, name="fast")
    done = []
    entry = slow.add(
        40.0, on_complete=lambda: done.append(sim.now), cap=5.0, label="read"
    )
    other = slow.add(100.0)

    def move():
        slow.detach(entry)
        assert not entry.done and entry not in slow.entries
        assert other.rate == pytest.approx(2.0)  # slow pool rebalanced
        fast.adopt(entry)

    sim.schedule(10.0, move)  # 10 s at rate 1: 30 units left
    sim.run(until=11.0)
    assert entry.pool is fast and entry in fast.entries
    assert (entry.label, entry.cap, entry.rate) == ("read", 5.0, 5.0)
    sim.run(until=20.0)
    assert done == [pytest.approx(16.0)]  # 30 units at the cap of 5
    # a later remove through the owner's handle is a no-op, not an error
    entry.pool.remove(entry)
    assert list(fast.entries) == []


def test_removing_an_adopted_entry_takes_it_out_of_the_new_pool(sim):
    old = ResourcePool(sim, 10.0, name="old")
    new = ResourcePool(sim, 10.0, name="new")
    done = []
    entry = old.add(100.0, on_complete=lambda: done.append(sim.now))
    sim.run(until=1.0)
    old.detach(entry)
    new.adopt(entry)
    entry.pool.remove(entry)  # what a killed task does with its handle
    assert entry.done and list(new.entries) == [] and list(old.entries) == []
    sim.run()
    assert done == []


def test_remove_on_the_instant_the_work_drains_finishes_the_entry(sim):
    """A remove scheduled for the very instant an entry drains: the
    advance it runs first finishes the entry, which completes as usual
    instead of being removed a second time."""
    pool = ResourcePool(sim, 10.0)
    box = {}
    done = []
    sim.schedule(10.0, lambda: pool.remove(box["entry"]))
    box["entry"] = pool.add(100.0, on_complete=lambda: done.append(sim.now))
    sim.run()
    assert done == [10.0]
    assert box["entry"].done
    assert list(pool.entries) == []


def test_rate_setters_raise_outside_a_batch(sim):
    pool = ResourcePool(sim, 10.0)
    entry = pool.add(100.0, cap=5.0)
    for setter, value in (
        (entry.set_cap, 2.0),
        (entry.set_weight, 3.0),
        (entry.set_efficiency, 0.5),
    ):
        with pytest.raises(RuntimeError):
            setter(value)
    assert (entry.cap, entry.weight, entry.efficiency) == (5.0, 1.0, 1.0)
    assert entry.rate == 5.0


def test_clean_batch_keeps_the_pending_completion_event(sim):
    """A batch that writes back the values already in place skips the
    closing rebalance, so the scheduled completion event survives; a
    batch that changes a value reschedules it."""
    pool = ResourcePool(sim, 10.0)
    a = pool.add(100.0, cap=4.0, weight=2.0, efficiency=0.5)
    b = pool.add(50.0)
    sim.run(until=2.0)
    event = pool._completion_event
    assert event is not None
    pool.begin_batch()
    for entry in (a, b):
        entry.set_cap(entry.cap)
        entry.set_weight(entry.weight)
        entry.set_efficiency(entry.efficiency)
    pool.end_batch()
    assert pool._completion_event is event
    pool.begin_batch()
    a.set_cap(3.0)
    pool.end_batch()
    assert pool._completion_event is not event
