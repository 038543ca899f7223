"""Tests for the network fabric."""

import random

import pytest

from repro.sim.engine import Simulator
from repro.sim.network import NetworkFabric
from tests.maxmin_oracle import fill_flow_list, maxmin_flow_rates


def make_fabric(sim, hosts=("a", "b", "c"), cap=100.0):
    fabric = NetworkFabric(sim)
    for host in hosts:
        fabric.register_host(host, up_mbps=cap, down_mbps=cap)
    return fabric


def test_single_flow_full_rate(sim):
    fabric = make_fabric(sim)
    done = []
    fabric.start_flow("a", "b", 200.0, on_complete=lambda: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(2.0)]


def test_two_flows_share_uplink(sim):
    fabric = make_fabric(sim)
    done = {}
    fabric.start_flow("a", "b", 100.0, on_complete=lambda: done.setdefault("ab", sim.now))
    fabric.start_flow("a", "c", 100.0, on_complete=lambda: done.setdefault("ac", sim.now))
    sim.run()
    assert done["ab"] == pytest.approx(2.0)
    assert done["ac"] == pytest.approx(2.0)


def test_disjoint_flows_run_at_line_rate(sim):
    fabric = make_fabric(sim, hosts=("a", "b", "c", "d"))
    done = {}
    fabric.start_flow("a", "b", 100.0, on_complete=lambda: done.setdefault("ab", sim.now))
    fabric.start_flow("c", "d", 100.0, on_complete=lambda: done.setdefault("cd", sim.now))
    sim.run()
    assert done["ab"] == pytest.approx(1.0)
    assert done["cd"] == pytest.approx(1.0)


def test_loopback_same_host_is_fast(sim):
    fabric = make_fabric(sim)
    done = []
    fabric.start_flow("a", "a", 2000.0, on_complete=lambda: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(1.0)]  # default loopback 2000 MB/s


def test_group_colocation_uses_loopback(sim):
    fabric = NetworkFabric(sim)
    fabric.register_host("vm0", up_mbps=10.0, down_mbps=10.0, group="pm0")
    fabric.register_host("vm1", up_mbps=10.0, down_mbps=10.0, group="pm0")
    done = []
    fabric.start_flow("vm0", "vm1", 2000.0, on_complete=lambda: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(1.0)]  # loopback, not the 10 MB/s NICs


def test_set_group_rehomes_host(sim):
    fabric = NetworkFabric(sim)
    fabric.register_host("vm0", up_mbps=10.0, down_mbps=10.0, group="pm0")
    fabric.register_host("vm1", up_mbps=10.0, down_mbps=10.0, group="pm1")
    assert not fabric.colocated("vm0", "vm1")
    fabric.set_group("vm1", "pm0")
    assert fabric.colocated("vm0", "vm1")


def test_cancel_flow(sim):
    fabric = make_fabric(sim)
    done = []
    flow = fabric.start_flow("a", "b", 100.0, on_complete=lambda: done.append(1))
    sim.schedule(0.5, lambda: fabric.cancel_flow(flow))
    sim.run()
    assert done == []
    assert flow.done
    assert flow.remaining == pytest.approx(50.0)


def test_flow_efficiency_slows_transfer(sim):
    fabric = make_fabric(sim)
    done = []
    fabric.start_flow("a", "b", 100.0, on_complete=lambda: done.append(sim.now), efficiency=0.5)
    sim.run()
    assert done == [pytest.approx(2.0)]


def test_zero_byte_flow_completes_immediately(sim):
    fabric = make_fabric(sim)
    done = []
    flow = fabric.start_flow("a", "b", 0.0, on_complete=lambda: done.append(1))
    assert flow.done
    sim.run()
    assert done == [1]


def test_unknown_host_rejected(sim):
    fabric = make_fabric(sim)
    with pytest.raises(KeyError):
        fabric.start_flow("a", "nope", 1.0)


def test_duplicate_host_rejected(sim):
    fabric = make_fabric(sim)
    with pytest.raises(ValueError):
        fabric.register_host("a")


def test_bytes_accounting(sim):
    fabric = make_fabric(sim)
    fabric.start_flow("a", "b", 100.0)
    fabric.start_flow("a", "a", 50.0)
    sim.run()
    assert fabric.bytes_transferred_mb == pytest.approx(150.0)
    assert fabric.cross_host_mb == pytest.approx(100.0)


# ----------------------------------------------------------------------
# maxmin_fill (pure function)
# ----------------------------------------------------------------------
class _FakeFlow:
    def __init__(self, src, dst):
        self.src = src
        self.dst = dst
        self.rate = 0.0


class _Links:
    def __init__(self, up, down):
        self.up = up
        self.down = down
        self.nic_scale = 1.0


def test_maxmin_bottleneck_is_shared_link():
    flows = [_FakeFlow("a", "b"), _FakeFlow("a", "c")]
    links = {"a": _Links(100, 100), "b": _Links(100, 100), "c": _Links(100, 100)}
    rates = fill_flow_list(flows, links)
    assert rates == [pytest.approx(50.0), pytest.approx(50.0)]


def test_maxmin_unequal_links():
    # a->b limited by b's 30 downlink; a->c then gets the leftover 70
    flows = [_FakeFlow("a", "b"), _FakeFlow("a", "c")]
    links = {"a": _Links(100, 100), "b": _Links(100, 30), "c": _Links(100, 100)}
    rates = fill_flow_list(flows, links)
    assert rates[0] == pytest.approx(30.0)
    assert rates[1] == pytest.approx(70.0)


def test_maxmin_no_flows():
    assert fill_flow_list([], {}) == []


# ----------------------------------------------------------------------
# completion/cancel interactions and flow indexes
# ----------------------------------------------------------------------
def test_same_instant_finish_callback_cancels_sibling(sim):
    """Two flows finish in the same _advance batch; the first one's
    completion callback cancels the second (a finished shuffle attempt
    killing its speculative twin).  The second's removal must not raise
    and its on_complete must not fire."""
    fabric = make_fabric(sim, hosts=("a", "b", "c", "d"))
    calls = []
    flows = {}

    def first_done():
        calls.append("first")
        fabric.cancel_flow(flows["second"])

    flows["first"] = fabric.start_flow("a", "b", 100.0, on_complete=first_done)
    flows["second"] = fabric.start_flow(
        "c", "d", 100.0, on_complete=lambda: calls.append("second")
    )
    sim.run()
    assert calls == ["first"]
    assert flows["second"].done
    assert flows["second"].rate == 0.0
    counters = sim.obs.metrics.counters()
    assert counters["net.flows.completed"] == 1
    assert counters["net.flows.cancelled"] == 1


def test_same_instant_loopback_finish_callback_cancels_sibling(sim):
    """Same race on the loopback channel, where the old removal fell
    through to self._loop_flows.remove on an absent flow."""
    fabric = make_fabric(sim)
    calls = []
    flows = {}

    def first_done():
        calls.append("first")
        fabric.cancel_flow(flows["second"])

    flows["first"] = fabric.start_flow("a", "a", 1000.0, on_complete=first_done)
    flows["second"] = fabric.start_flow(
        "b", "b", 1000.0, on_complete=lambda: calls.append("second")
    )
    sim.run()
    assert calls == ["first"]
    assert flows["second"].done


def test_flows_from_includes_loopback(sim):
    fabric = make_fabric(sim)
    loop = fabric.start_flow("a", "a", 1000.0, on_complete=lambda: None)
    cross = fabric.start_flow("a", "b", 100.0, on_complete=lambda: None)
    inbound = fabric.start_flow("c", "a", 100.0, on_complete=lambda: None)
    outgoing = fabric.flows_from("a")
    assert cross in outgoing
    assert loop in outgoing, "loopback flows must be visible to node-kill teardown"
    assert inbound not in outgoing


def test_flows_to_symmetry(sim):
    fabric = make_fabric(sim)
    loop = fabric.start_flow("a", "a", 1000.0, on_complete=lambda: None)
    cross = fabric.start_flow("a", "b", 100.0, on_complete=lambda: None)
    inbound = fabric.start_flow("c", "a", 100.0, on_complete=lambda: None)
    incoming = fabric.flows_to("a")
    assert inbound in incoming
    assert loop in incoming
    assert cross not in incoming
    assert fabric.flows_to("b") == [cross]


def test_flow_index_tolerates_unknown_host(sim):
    fabric = make_fabric(sim)
    assert fabric.flows_from("ghost") == []
    assert fabric.flows_to("ghost") == []


def test_cancel_on_the_instant_the_flow_drains_completes_it_once(sim):
    """A cancel scheduled for the very instant a flow drains: the advance
    it runs first finishes the flow, so the flow completes (callback and
    counter once) and is not also counted as cancelled."""
    fabric = NetworkFabric(sim)
    fabric.register_host("a")
    fabric.register_host("b")
    box = {}
    done = []
    sim.schedule(10.0, lambda: fabric.cancel_flow(box["flow"]))
    box["flow"] = fabric.start_flow(
        "a", "b", 1190.0, on_complete=lambda: done.append(sim.now)
    )
    sim.run()
    assert done == [10.0]
    counters = sim.obs.metrics.counters()
    assert counters["net.flows.completed"] == 1
    assert counters.get("net.flows.cancelled", 0) == 0
    assert fabric.flows_from("a") == []


def test_nic_change_on_an_idle_host_leaves_other_rates_alone(sim):
    """A change re-fills only the components of the links it touches.
    Here h3->h4 and h5->h4 share h4's downlink with shares inside the
    fill's 1e-9 tie window, and h1->h2 runs elsewhere; a refill of all
    three together would resolve the near-tie differently.  Scaling the
    NIC of h9, which carries no flow, must leave every rate bit-identical."""
    fabric = NetworkFabric(sim)
    fabric.register_host("h1", up_mbps=1.0, down_mbps=100.0)
    fabric.register_host("h3", up_mbps=1.0 - 0.6e-9, down_mbps=100.0)
    fabric.register_host("h4", up_mbps=100.0, down_mbps=2.0 * (1.0 - 1.5e-9))
    for host in ("h2", "h5", "h9"):
        fabric.register_host(host, up_mbps=100.0, down_mbps=100.0)
    flows = [
        fabric.start_flow(src, dst, 1000.0)
        for src, dst in (("h1", "h2"), ("h3", "h4"), ("h5", "h4"))
    ]
    before = [flow.rate for flow in flows]
    fabric.set_nic_scale("h9", 0.5)
    assert [flow.rate for flow in flows] == before


def test_group_move_under_partition_refills_the_freed_link(sim):
    """Moving h2 out of h0's group under a partition blocks h0->h2 and so
    frees h0's uplink: the refill must reach h0->h1, although the move
    touched only h2."""
    fabric = make_fabric(sim, hosts=("h0", "h1", "h2"))
    to_h1 = fabric.start_flow("h0", "h1", 1000.0)
    to_h2 = fabric.start_flow("h0", "h2", 1000.0)
    fabric.set_group("h2", "h0")  # colocated: a partition cannot cut it
    fabric.partition(["h0", "h1"], ["h2"])
    assert (to_h1.rate, to_h2.rate) == (50.0, 50.0)
    fabric.set_group("h2", "h2")
    assert (to_h1.rate, to_h2.rate) == (100.0, 0.0)
    fabric.set_group("h2", "h0")
    assert (to_h1.rate, to_h2.rate) == (50.0, 50.0)


# ----------------------------------------------------------------------
# the fill's link order: first use over the live, unblocked flows
# ----------------------------------------------------------------------
def _assert_oracle_rates(fabric):
    """Every live cross-host flow the partition does not block has the
    oracle's rate over those flows in start order, bit for bit."""
    live = [f for f in fabric._flows if not fabric.is_blocked(f.src, f.dst)]
    assert [f.rate for f in live] == maxmin_flow_rates(live, fabric._links)


def test_link_order_follows_the_first_live_flow_after_a_cancel(sim):
    """Cancelling h0->h1, the earliest flow on h0's uplink, moves that link
    behind h2's downlink, whose first flow h1->h2 started before h0->h2.
    h2's downlink (share 0.9999999997) and h0's uplink (1.0) tie within
    the fill's 1e-9 window, so the first of them in link order fixes
    both flows.  Found by a seed search over near-tie capacities."""
    fabric = NetworkFabric(sim)
    for host, up, down in (
        ("h0", 1.0, 3.0),
        ("h1", 1.9999999994, 1.9999999982),
        ("h2", 1.9999999994, 1.9999999994),
    ):
        fabric.register_host(host, up_mbps=up, down_mbps=down)
    earliest = fabric.start_flow("h0", "h1", 1000.0)
    fabric.start_flow("h1", "h2", 1000.0)
    fabric.start_flow("h0", "h2", 1000.0)
    _assert_oracle_rates(fabric)
    fabric.cancel_flow(earliest)
    _assert_oracle_rates(fabric)
    assert [f.rate for f in fabric._flows] == [0.9999999997, 0.9999999997]


def test_link_order_under_a_partition_skips_blocked_flows(sim):
    """The partition blocks h2->h1, the earliest flow on h1's downlink, so
    that link's position comes from h3->h1, its first unblocked flow: it
    sorts behind h3's uplink.  Their shares (1.0 and 0.9999999997) tie
    within 1e-9, so h3's uplink fixes both of its flows at 1.0.  Found by
    the same seed search."""
    fabric = NetworkFabric(sim)
    for host, up, down in (
        ("h0", 100.0, 100.0),
        ("h1", 1.9999999994, 0.9999999997),
        ("h2", 100.0, 1.9999999988),
        ("h3", 2.0, 1.9999999982),
    ):
        fabric.register_host(host, up_mbps=up, down_mbps=down)
    blocked = fabric.start_flow("h2", "h1", 1000.0)
    fabric.start_flow("h3", "h2", 1000.0)
    fabric.start_flow("h3", "h1", 1000.0)
    _assert_oracle_rates(fabric)
    fabric.partition(["h0", "h2"], ["h1"])
    assert blocked.rate == 0.0
    _assert_oracle_rates(fabric)
    assert [f.rate for f in fabric._flows][1:] == [1.0, 1.0]


def test_flow_finishing_within_one_ulp_of_the_clock_completes(sim):
    """1.6e-9 MB left (above the fabric's 1e-9 MB epsilon) at 2000 MB/s
    is an 8e-13 s ETA; at t = 8275.847 s one ulp is 1.8e-12 s, so
    ``now + eta == now``.  Seen in a seeded dispatch history whose job
    kept re-executing maps for hours of simulated time."""
    fabric = NetworkFabric(sim)
    fabric.register_host("a", up_mbps=100.0, down_mbps=100.0, loopback_mbps=2000.0)
    sim.schedule_at(8275.847, lambda: None)
    sim.run()
    assert sim.now + 1.6e-9 / 2000.0 == sim.now
    done = []
    fabric.start_flow("a", "a", 1.6e-9, on_complete=lambda: done.append(sim.now))
    sim.run(max_events=1_000)
    assert done == [8275.847]


# ----------------------------------------------------------------------
# the per-link maps: an entry per busy link, none for an idle one
# ----------------------------------------------------------------------
def _assert_link_maps(fabric, live, loopback):
    """Each of the four per-link maps holds exactly its link's live
    flows, in start order, and only links that carry one have a key.
    ``live`` lists the live flows in start order and ``loopback`` says
    which of them the test's own group book routes over a loopback."""
    want = {"up": {}, "down": {}, "out": {}, "in": {}}
    for flow in live:
        assert flow.is_loopback == loopback[flow]
        src_map, dst_map = ("out", "in") if loopback[flow] else ("up", "down")
        want[src_map].setdefault(flow.src, []).append(flow)
        want[dst_map].setdefault(flow.dst, []).append(flow)
    maps = {
        "up": fabric._up_flows,
        "down": fabric._down_flows,
        "out": fabric._loop_out,
        "in": fabric._loop_in,
    }
    for name, by_host in maps.items():
        assert all(by_host.values()), f"{name}: an emptied map was kept"
        assert {h: list(flows) for h, flows in by_host.items()} == want[name], name
    for host in fabric._links:
        outgoing = want["up"].get(host, []) + want["out"].get(host, [])
        incoming = want["down"].get(host, []) + want["in"].get(host, [])
        assert (fabric.flows_from(host), fabric.flows_to(host)) == (outgoing, incoming)


def test_link_maps_hold_only_live_flows():
    """Seeded random sequences on six hosts in two co-location groups:
    cross-host, loopback and zero-byte starts, cancels, runs to the next
    completion, NIC scale changes, a partition and its heal, group moves
    and batched bursts.  After every step (and every operation inside a
    burst) the per-link maps index exactly the live flows, and an idle
    link has no map; once ``sim.run()`` drains, all four maps are empty."""
    for seed in range(40):
        rng = random.Random(seed)
        sim = Simulator(seed=seed)
        fabric = NetworkFabric(sim)
        hosts = [f"h{i}" for i in range(6)]
        group = {host: ("g0", "g1")[i % 2] for i, host in enumerate(hosts)}
        for host in hosts:
            fabric.register_host(
                host, up_mbps=rng.choice([50.0, 100.0]),
                down_mbps=rng.choice([50.0, 100.0]), group=group[host],
            )
        started, ended, loopback = [], set(), {}

        def start():
            src, dst = rng.choice(hosts), rng.choice(hosts)
            mb = 0.0 if rng.random() < 0.05 else rng.uniform(5.0, 400.0)
            box = []
            flow = fabric.start_flow(
                src, dst, mb, on_complete=lambda: ended.add(box[0])
            )
            box.append(flow)
            if mb > 0.0:  # a zero-byte flow is done at once, never indexed
                started.append(flow)
                loopback[flow] = group[src] == group[dst]

        def live():
            return [f for f in started if f not in ended]

        def cancel():
            flows = live()
            if flows:
                flow = rng.choice(flows)
                fabric.cancel_flow(flow)
                ended.add(flow)

        def next_completion():
            count = len(ended)
            while len(ended) == count and sim.step():
                pass

        def check():
            _assert_link_maps(fabric, live(), loopback)

        for _ in range(60):
            op = rng.random()
            if op < 0.35:
                start()
            elif op < 0.45:
                cancel()
            elif op < 0.6:
                next_completion()
            elif op < 0.68:
                fabric.set_nic_scale(rng.choice(hosts), rng.choice([0.25, 0.5, 1.0]))
            elif op < 0.8:
                host = rng.choice(hosts)
                group[host] = rng.choice(["g0", "g1", host])
                fabric.set_group(host, group[host])
            elif op < 0.9:
                fabric.begin_batch()
                for _ in range(rng.randint(1, 5)):
                    if rng.random() < 0.6:
                        start()
                    else:
                        cancel()
                    check()
                fabric.end_batch()
            elif fabric.partitioned:
                fabric.heal_partition()
            else:
                cut = rng.sample(hosts, rng.randint(1, 5))
                fabric.partition(cut, [h for h in hosts if h not in cut])
            check()
        fabric.heal_partition()
        sim.run()
        assert live() == []
        check()
        assert (fabric._up_flows, fabric._down_flows, fabric._loop_out,
                fabric._loop_in) == ({}, {}, {}, {})
