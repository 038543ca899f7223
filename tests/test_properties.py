"""Property-based tests (hypothesis) on core invariants."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.interference.regression import fit_line, r_squared
from repro.sim.engine import Simulator
from repro.sim.network import _HostLinks
from repro.sim.pool import ResourcePool, waterfill
from repro.sim.trace import Trace
from tests.maxmin_oracle import fill_flow_list, maxmin_flow_rates

finite = st.floats(min_value=0.1, max_value=1e4, allow_nan=False)


# ----------------------------------------------------------------------
# waterfill invariants
# ----------------------------------------------------------------------
@given(
    capacity=st.floats(min_value=0.0, max_value=1e4),
    entries=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0),  # weight
            st.floats(min_value=0.0, max_value=1e4),  # cap
        ),
        min_size=0,
        max_size=12,
    ),
)
def test_waterfill_conserves_and_respects_caps(capacity, entries):
    weights = [w for w, _ in entries]
    caps = [c for _, c in entries]
    rates = waterfill(capacity, weights, caps)
    assert len(rates) == len(entries)
    assert all(r >= -1e-9 for r in rates)
    # never exceed the capacity
    assert sum(rates) <= capacity + 1e-6
    # never exceed a cap
    for rate, cap in zip(rates, caps):
        assert rate <= cap + 1e-6
    # work conservation: if any entry is below its cap and has weight,
    # capacity must be (nearly) exhausted or everyone else is capped
    unsated = [
        i for i, (w, c) in enumerate(entries) if w > 1e-9 and rates[i] < c - 1e-6
    ]
    if unsated:
        assert sum(rates) >= capacity - 1e-6 or all(
            rates[i] >= caps[i] - 1e-6 for i in range(len(entries)) if i not in unsated
        )


@given(
    capacity=st.floats(min_value=1.0, max_value=100.0),
    weights=st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=2, max_size=8),
)
def test_waterfill_uncapped_is_weight_proportional(capacity, weights):
    caps = [math.inf] * len(weights)
    rates = waterfill(capacity, weights, caps)
    total_w = sum(weights)
    for rate, weight in zip(rates, weights):
        assert rate == pytest_approx(capacity * weight / total_w)


def pytest_approx(value, rel=1e-6):
    import pytest

    return pytest.approx(value, rel=rel)


# ----------------------------------------------------------------------
# max-min network rates
# ----------------------------------------------------------------------
class _F:
    def __init__(self, src, dst):
        self.src = src
        self.dst = dst
        self.rate = 0.0


@given(
    n_hosts=st.integers(min_value=2, max_value=5),
    pairs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)),
        min_size=1,
        max_size=10,
    ),
    cap=st.floats(min_value=1.0, max_value=1000.0),
)
def test_maxmin_never_oversubscribes_links(n_hosts, pairs, cap):
    hosts = [f"h{i}" for i in range(n_hosts)]
    flows = [
        _F(hosts[a % n_hosts], hosts[b % n_hosts])
        for a, b in pairs
        if a % n_hosts != b % n_hosts
    ]
    if not flows:
        return
    links = {h: _HostLinks(cap, cap, 2000.0, h) for h in hosts}
    rates = fill_flow_list(flows, links)
    assert all(r >= -1e-9 for r in rates)
    up = {h: 0.0 for h in hosts}
    down = {h: 0.0 for h in hosts}
    for flow, rate in zip(flows, rates):
        up[flow.src] += rate
        down[flow.dst] += rate
    for h in hosts:
        assert up[h] <= cap * (1 + 1e-6)
        assert down[h] <= cap * (1 + 1e-6)


# ----------------------------------------------------------------------
# pool conservation under random scenarios
# ----------------------------------------------------------------------
@given(
    works=st.lists(st.floats(min_value=1.0, max_value=200.0), min_size=1, max_size=6),
    capacity=st.floats(min_value=1.0, max_value=50.0),
)
@settings(max_examples=30, deadline=None)
def test_pool_total_time_bounded_by_serial_time(works, capacity):
    sim = Simulator(seed=1)
    pool = ResourcePool(sim, capacity)
    finish = []
    for work in works:
        pool.add(work, on_complete=lambda: finish.append(sim.now))
    sim.run()
    assert len(finish) == len(works)
    serial = sum(works) / capacity
    # the pool is work-conserving: everything done exactly at the serial
    # completion bound (equal sharing never wastes capacity)
    assert max(finish) == pytest_approx(serial, rel=1e-6)


# ----------------------------------------------------------------------
# regression sanity
# ----------------------------------------------------------------------
@given(
    slope=st.floats(min_value=-5, max_value=5),
    intercept=st.floats(min_value=-10, max_value=10),
    # integer xs keep the spread well away from fit_line's degenerate
    # zero-variance fallback
    xs=st.lists(st.integers(min_value=-100, max_value=100), min_size=3, max_size=30, unique=True),
)
def test_fit_line_recovers_exact_lines(slope, intercept, xs):
    xs = [float(x) for x in xs]
    ys = [slope * x + intercept for x in xs]
    got_slope, got_icpt = fit_line(xs, ys)
    assert abs(got_slope - slope) < 1e-6 + 1e-6 * abs(slope)
    assert abs(got_icpt - intercept) < 1e-4 + 1e-6 * abs(intercept)
    assert r_squared(ys, [got_slope * x + got_icpt for x in xs]) > 1 - 1e-9


@given(
    values=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=50),
)
def test_trace_mean_within_bounds(values):
    trace = Trace()
    for i, v in enumerate(values):
        trace.record(float(i), v)
    assert min(values) - 1e-9 <= trace.mean() <= max(values) + 1e-9


# ----------------------------------------------------------------------
# indexed max-min fill and incremental rebalance vs the pure reference
# ----------------------------------------------------------------------
@given(
    n_hosts=st.integers(min_value=2, max_value=6),
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=5),
        ),
        min_size=1,
        max_size=14,
    ),
    caps=st.lists(
        st.floats(min_value=1.0, max_value=1000.0), min_size=6, max_size=6
    ),
    scales=st.lists(
        st.floats(min_value=0.05, max_value=1.0), min_size=6, max_size=6
    ),
)
@settings(max_examples=60, deadline=None)
def test_maxmin_fast_is_bit_identical_to_reference(n_hosts, pairs, caps, scales):
    hosts = [f"h{i}" for i in range(n_hosts)]
    flows = [
        _F(hosts[a % n_hosts], hosts[b % n_hosts])
        for a, b in pairs
        if a % n_hosts != b % n_hosts
    ]
    if not flows:
        return
    links = {}
    for i, h in enumerate(hosts):
        links[h] = _HostLinks(caps[i], caps[(i + 1) % 6], 2000.0, h)
        links[h].nic_scale = scales[i]
    reference = maxmin_flow_rates(flows, links)
    fast = fill_flow_list(flows, links)
    assert fast == reference  # bit-for-bit, not approx


def _nic_choice(rng):
    return rng.choice([50.0, 100.0, 400.0])


def _nic_near_tie(rng):
    """1, 2 or 3 MB/s less up to 0.9e-9 of it: fair shares in disjoint
    components then differ by less than the fill's tie tolerance."""
    return rng.choice([1, 2, 3]) * (1 - rng.uniform(0, 0.9e-9))


def _assert_maxmin_fair(flows, links):
    """A history-free check of a max-min fair allocation, to a millionth
    of each link's capacity: no link carries more than its capacity, and
    every flow crosses a full link on which no flow is faster (its
    bottleneck).  The allocation with this property is unique, so a rate
    a rebalance failed to refresh shows here whatever the seeds were."""
    rel = 1e-6  # far above the fill's rounding and 1e-9 tie window
    load, fastest, capacity = {}, {}, {}
    for flow in flows:
        for link, cap in (
            ((flow.src, "up"), links[flow.src].up * links[flow.src].nic_scale),
            ((flow.dst, "down"), links[flow.dst].down * links[flow.dst].nic_scale),
        ):
            capacity[link] = cap
            load[link] = load.get(link, 0.0) + flow.rate
            fastest[link] = max(fastest.get(link, 0.0), flow.rate)
    for link, cap in capacity.items():
        assert load[link] <= cap * (1 + rel), (link, load[link], cap)
    for flow in flows:
        assert any(
            load[link] >= capacity[link] * (1 - rel)
            and flow.rate >= fastest[link] - rel * capacity[link]
            for link in ((flow.src, "up"), (flow.dst, "down"))
        ), (flow.src, flow.dst, flow.rate)


def _drive_fabric(seed, nic, one_fill):
    """Drive a fabric through a random start/cancel/advance/degrade/
    group-move/batched-burst/partition/heal sequence.

    Every rebalance is held to the per-component rule: the links it
    reaches are exactly the connected components, under an independent
    union-find over unblocked cross-host flows, of its seed links; the
    flows on them get the pure reference fill over exactly those flows
    in start order, bit for bit; every other flow keeps its rate.  After
    every step, whatever the rebalances reached, the live flows hold a
    max-min fair allocation, stalled cross-partition flows sit at zero
    and loopback flows share their host channel equally.  With
    ``one_fill`` (capacities without near-ties, where one fill over all
    live flows equals the per-component fills) every live flow must also
    have that fill's rate, bit for bit.
    """
    import random as random_mod

    from repro.sim.network import NetworkFabric

    rng = random_mod.Random(seed)
    sim = Simulator(seed=seed)
    fabric = NetworkFabric(sim)
    hosts = [f"h{i}" for i in range(rng.randint(2, 6))]
    for host in hosts:
        fabric.register_host(
            host, up_mbps=nic(rng), down_mbps=nic(rng), loopback_mbps=2000.0
        )
    live = []
    fills = []  # (seeds, rates before, records) of the running rebalance
    real_component_links = fabric._component_links
    real_rebalance = fabric._rebalance

    def component_links(seeds):
        before = {flow: flow.rate for flow in fabric._flows}
        records = real_component_links(seeds)
        fills.append((set(seeds), before, records))
        return records

    def rebalance():
        fills.clear()
        real_rebalance()
        for seeds, before, records in fills:
            check_fill(seeds, before, records)

    def check_fill(seeds, before, records):
        unblocked = [f for f in fabric._flows if not fabric.is_blocked(f.src, f.dst)]
        parent = {}

        def find(link):
            parent.setdefault(link, link)
            while parent[link] != link:
                link = parent[link]
            return link

        for flow in unblocked:
            parent[find((flow.src, "up"))] = find((flow.dst, "down"))
        roots = {find(link) for link in seeds if link[1] != "loop"}
        used = {(f.src, "up") for f in unblocked} | {(f.dst, "down") for f in unblocked}
        reached = {link for link in used if find(link) in roots}
        assert {(host, ("up", "down")[d]) for _, d, host, _ in records} == reached
        filled = [f for f in unblocked if (f.src, "up") in reached]
        reference = maxmin_flow_rates(filled, fabric._links)
        assert [f.rate for f in filled] == reference  # bit-for-bit
        for flow in unblocked:
            if (flow.src, "up") not in reached:
                assert flow.rate == before[flow]

    fabric._component_links = component_links
    fabric._rebalance = rebalance

    def check() -> None:
        unblocked = []
        for flow in fabric._flows:
            if fabric.is_blocked(flow.src, flow.dst):
                assert flow.rate == 0.0
            else:
                unblocked.append(flow)
        _assert_maxmin_fair(unblocked, fabric._links)
        if one_fill:
            reference = maxmin_flow_rates(unblocked, fabric._links)
            assert [f.rate for f in unblocked] == reference  # bit-for-bit
        loop_users = {}
        for flow in fabric._loop_flows:
            loop_users[flow.src] = loop_users.get(flow.src, 0) + 1
        for flow in fabric._loop_flows:
            assert flow.rate == fabric._links[flow.src].loopback / loop_users[flow.src]

    def start() -> None:
        src = rng.choice(hosts)
        dst = rng.choice(hosts)
        flow = fabric.start_flow(
            src, dst, rng.uniform(5.0, 500.0), on_complete=lambda: None
        )
        live.append(flow)

    def cancel() -> None:
        flow = live.pop(rng.randrange(len(live)))
        if not flow.done:
            fabric.cancel_flow(flow)

    def degrade() -> None:
        fabric.set_nic_scale(rng.choice(hosts), rng.choice([0.25, 0.5, 1.0]))

    for _ in range(40):
        op = rng.random()
        if op < 0.35 or not live:
            start()
        elif op < 0.45:
            cancel()
        elif op < 0.6:
            sim.run(until=sim.now + rng.uniform(0.01, 2.0))
        elif op < 0.67:
            degrade()
        elif op < 0.8:
            # re-home a host into another host's group, or back into its
            # own; under a partition this blocks or frees its flows
            fabric.set_group(rng.choice(hosts), rng.choice(hosts))
        elif op < 0.88:
            # a burst of starts and cancels around one NIC change, with
            # a single closing fill
            steps = rng.randint(1, 4)
            nic_at = rng.randint(0, steps)
            fabric.begin_batch()
            for i in range(steps + 1):
                if i == nic_at:
                    degrade()
                elif rng.random() < 0.6 or not live:
                    start()
                else:
                    cancel()
            fabric.end_batch()
        elif fabric.partitioned:
            fabric.heal_partition()
        elif len(hosts) >= 2:
            cut = rng.randint(1, len(hosts) - 1)
            shuffled = hosts[:]
            rng.shuffle(shuffled)
            fabric.partition(shuffled[:cut], shuffled[cut:])
        live = [f for f in live if not f.done]
        check()
    sim.run()


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_incremental_rebalance_matches_pure_reference(seed):
    _drive_fabric(seed, _nic_choice, one_fill=True)


# near-ties across components: the seeds a fill over *all* live flows
# disagrees with (it resolves such ties across components)
@example(seed=147)
@example(seed=182)
@example(seed=491)
@example(seed=1251)
@example(seed=1787)
@example(seed=1834)
@example(seed=1860)
@example(seed=1868)
@example(seed=2013)
@example(seed=2014)
@example(seed=2530)
@example(seed=2904)
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_incremental_rebalance_near_ties_fill_per_component(seed):
    _drive_fabric(seed, _nic_near_tie, one_fill=False)
