"""Event core: equivalence proofs for the engine's and fabric's hot paths.

Three families of evidence that the fast paths cannot drift:

- compaction is invisible: a randomized schedule (cancellations,
  recurrences, ghost keys, ``run(until)`` splits) fires the identical
  trace with and without forced mid-run compactions;
- the indexed max-min fill is *bitwise* identical to the per-link
  oracle in ``tests/maxmin_oracle.py``, both called directly and as
  the fabric dispatches it during a run;
- ``Simulator.step``'s single dispatch tail means profiled runs
  replay the bare run event-for-event, and the profiler bills a
  ``call_every`` recurrence to the callback it runs.
"""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.prof import Profiler
from repro.sim import network
from repro.sim.engine import Simulator
from repro.sim.network import NetworkFabric, _HostLinks, maxmin_fill
from tests.maxmin_oracle import maxmin_flow_rates


# ----------------------------------------------------------------------
# compaction never changes pop order
# ----------------------------------------------------------------------
def _run_scenario(seed: int, compact: bool):
    """Drive one randomized schedule; ``compact`` forces extra
    compactions at random points.

    The RNG is consumed *inside callbacks*, so draws align across the
    two variants only if pop order is identical -- any divergence
    cascades into a loudly different trace rather than a near miss.
    """
    rng = random.Random(seed)
    sim = Simulator()
    trace = []
    live_events = []

    def make(label: str, depth: int):
        def cb() -> None:
            trace.append((round(sim.now, 9), label))
            roll = rng.random()
            if roll < 0.35 and depth < 4:
                # schedule more work from within a callback
                for i in range(rng.randrange(1, 3)):
                    live_events.append(
                        sim.schedule(
                            rng.uniform(0.0, 7.0),
                            make(f"{label}.{i}", depth + 1),
                            priority=rng.randrange(-2, 3),
                        )
                    )
            elif roll < 0.55 and live_events:
                # cancel a random pending event (tombstone/ghost source)
                live_events.pop(rng.randrange(len(live_events))).cancel()
            elif roll < 0.60 and compact:
                sim._compact()

        return cb

    for i in range(rng.randrange(5, 25)):
        live_events.append(
            sim.schedule(
                rng.uniform(0.0, 10.0),
                make(f"root{i}", 0),
                priority=rng.randrange(-2, 3),
            )
        )
    # exact-grid recurrences, one cancelled mid-run
    cancels = [
        sim.call_every(rng.uniform(0.5, 2.0), make(f"every{i}", 4), until=12.0)
        for i in range(2)
    ]
    sim.schedule(rng.uniform(2.0, 6.0), lambda: cancels[0]())
    # a same-(time, priority) collision: seq must break the tie
    t = rng.uniform(1.0, 9.0)
    for i in range(3):
        sim.schedule_at(t, make(f"tie{i}", 4), priority=1)

    # split the run so run(until)'s raw-head-peek semantics are hit too
    sim.run(until=rng.uniform(2.0, 8.0))
    if compact:
        sim._compact()
    sim.run(until=40.0)
    return trace, sim.now, sim.events_processed, sim.queue_stats()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_compaction_is_invisible_to_pop_order(seed):
    plain = _run_scenario(seed, compact=False)
    compacted = _run_scenario(seed, compact=True)
    assert compacted[0] == plain[0], "pop order diverged"
    assert compacted[1] == plain[1], "final clock diverged"
    assert compacted[2] == plain[2], "events_processed diverged"
    # both runs must agree the queue fully drained
    assert plain[3]["live"] == 0
    assert compacted[3]["live"] == 0


def test_queue_stats_reports_backend():
    stats = Simulator().queue_stats()
    assert stats == {
        "backend": "heap", "depth": 0, "live": 0, "tombstones": 0, "ghost_keys": 0,
    }


# ----------------------------------------------------------------------
# indexed max-min fill: bitwise identical to the oracle
# ----------------------------------------------------------------------
class _F:
    __slots__ = ("src", "dst")

    def __init__(self, src: str, dst: str) -> None:
        self.src = src
        self.dst = dst


def _random_topology(rng: random.Random):
    n_hosts = rng.randrange(2, 9)
    hosts = [f"h{i}" for i in range(n_hosts)]
    # a few shared capacity values so exact float ties actually occur
    tie_pool = [rng.uniform(20.0, 2000.0) for _ in range(3)]
    links = {}
    for h in hosts:
        up = rng.choice(tie_pool) if rng.random() < 0.6 else rng.uniform(20.0, 2000.0)
        down = rng.choice(tie_pool) if rng.random() < 0.6 else rng.uniform(20.0, 2000.0)
        link = _HostLinks(up, down, 2000.0, h)
        if rng.random() < 0.3:
            link.nic_scale = rng.choice([0.25, 0.5, 1.0])
        links[h] = link
    flows = []
    for _ in range(rng.randrange(1, 120)):
        src, dst = rng.sample(hosts, 2)
        flows.append(_F(src, dst))
    return flows, links


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_vectorized_fill_bit_identical(seed):
    """The indexed fill -- the only fill since the numpy one that gave
    this test its name was deleted -- matches the oracle on tie-heavy
    topologies."""
    flows, links = _random_topology(random.Random(seed))
    # bitwise: the fill feeds completion-event timestamps, so even 1-ulp
    # drift would change digests
    assert maxmin_fill(flows, links) == maxmin_flow_rates(flows, links)


def _fabric_scenario(rng: random.Random) -> None:
    """Random flow arrivals and NIC degradations on a tie-heavy fabric,
    so the run hits both the incremental and the full rebalance."""
    sim = Simulator(seed=rng.randrange(1_000))
    fabric = NetworkFabric(sim)
    hosts = [f"h{i}" for i in range(rng.randrange(2, 9))]
    tie_pool = [rng.uniform(20.0, 2000.0) for _ in range(3)]
    for h in hosts:
        fabric.register_host(
            h, up_mbps=rng.choice(tie_pool), down_mbps=rng.choice(tie_pool)
        )
    for _ in range(rng.randrange(1, 60)):
        src, dst = rng.sample(hosts, 2)
        mb = rng.uniform(1.0, 500.0)
        sim.schedule(
            rng.uniform(0.0, 5.0),
            lambda src=src, dst=dst, mb=mb: fabric.start_flow(src, dst, mb),
        )
    for _ in range(rng.randrange(0, 3)):
        host, scale = rng.choice(hosts), rng.choice([0.25, 0.5, 1.0])
        sim.schedule(
            rng.uniform(0.0, 5.0),
            lambda host=host, scale=scale: fabric.set_nic_scale(host, scale),
        )
    sim.run()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_maxmin_fill_dispatcher_matches_reference(seed):
    """The fabric dispatches every fill through the module global
    ``network.maxmin_fill`` (the name a profiler patch wraps), and each
    dispatched fill returns the oracle's rates for its component."""
    fill = network.maxmin_fill
    checked = []

    def spy(flows, links):
        rates = fill(flows, links)
        checked.append(rates == maxmin_flow_rates(flows, links))
        return rates

    with mock.patch.object(network, "maxmin_fill", spy):
        _fabric_scenario(random.Random(seed))
    assert checked, "the fabric never reached network.maxmin_fill"
    assert all(checked)


# ----------------------------------------------------------------------
# step(): one dispatch tail, instrumented runs replay the bare run
# ----------------------------------------------------------------------
def _instrumented_run(profiling: bool, stepwise: bool):
    sim = Simulator()
    if profiling:
        sim.enable_profiling(Profiler(gauge_sample_every=16))
    rng = random.Random(42)
    trace = []

    def make(label, depth):
        def cb():
            trace.append((round(sim.now, 9), label))
            if depth < 3 and rng.random() < 0.4:
                sim.schedule(rng.uniform(0.0, 3.0), make(label + "'", depth + 1))

        return cb

    for i in range(30):
        sim.schedule(rng.uniform(0.0, 5.0), make(f"e{i}", 0), priority=i % 3)
    if stepwise:
        while sim.step():
            pass
    else:
        sim.run()
    return trace, sim.events_processed


def test_step_dispatch_tail_identical_across_instrumentation():
    """Regression for the duplicated step() dispatch tail: profiled
    variants must process the identical event sequence with identical
    ``events_processed`` -- via step() and run() both."""
    baseline = _instrumented_run(profiling=False, stepwise=False)
    for profiling in (False, True):
        for stepwise in (False, True):
            got = _instrumented_run(profiling, stepwise)
            assert got == baseline, (
                f"dispatch drift with profiling={profiling} "
                f"stepwise={stepwise}"
            )


def _tick() -> None:
    pass


def test_call_every_is_attributed_to_its_callback():
    """A recurrence is billed to the callback it runs, not to the
    engine's closure around it."""
    sim = Simulator()
    prof = Profiler()
    sim.enable_profiling(prof)
    sim.call_every(1.0, _tick, until=5.0)
    sim.run()
    snapshot = prof.snapshot()
    assert {k: v["events"] for k, v in snapshot["subsystems"].items()} == {__name__: 5}
    assert [c["name"] for c in snapshot["callbacks"]] == [f"{__name__}:_tick"]
