"""Host-to-host network fabric with max-min fair flow rates.

The fabric models each host's NIC as an uplink and a downlink of fixed
capacity (1 Gbps ~ 119 MB/s in the paper's testbed).  Every active flow
crosses its source's uplink and destination's downlink; rates are
assigned by progressive filling (the classic max-min fair allocation),
recomputed whenever a flow starts or finishes.

Flows between two endpoints on the *same* host (e.g. two VMs, or a
compute VM talking to a datanode VM it shares a PM with) never touch the
NIC: they ride a per-host loopback channel with much higher capacity,
which is what makes the paper's Same-Host configuration beat Cross-Host
(Figure 2(a)) despite having fewer cores per VM.

Hot-path complexity
-------------------
Flow membership lives in per-link indexes (a flow map per busy uplink,
downlink and loopback in/out channel, keyed by host), so ``start_flow``,
``cancel_flow``, flow completion and ``flows_from``/``flows_to`` are
O(1) or O(result).  A link has a map only while it carries live flows:
the first flow to start on it creates the map and the last to finish or
be cancelled deletes it, so an idle fabric holds no per-link state
beyond each host's capacities.  Every change -- a flow start, cancel or
completion, a NIC scale, a partition or its heal, a group move -- marks
the links it touches, and the rebalance re-runs progressive filling
only over the *connected components* of unblocked flows reachable from
them; flows elsewhere keep their rates, since max-min allocations of
disjoint components are independent.  The walk hands the fill the links
it reached, each with its own flow map, ordered by the start order of
each link's first unblocked flow (``Flow.seq``) -- the order a fill over
the component's flows in start order would meet them -- so a rebalance
costs the walk, a sort of the reached links and the fill, and never
reads the flow table.  The fill (:func:`maxmin_fill`) maintains per-link
unfixed-flow counters instead of rescanning every link's flows each
round: O(F + L·rounds) in all.  Progress advancement and the
next-completion scan stay O(live flows): the fluid model applies the
same per-interval arithmetic to every flow with a nonzero rate, and
replays must stay byte-identical (see docs/networking.md); stalled
flows (partitioned, or starved by the fill) are skipped.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.sim.engine import Event, Simulator, _profiled_call

_EPS = 1e-9


class Flow:
    """A point-to-point transfer of ``mb`` megabytes."""

    __slots__ = (
        "src",
        "dst",
        "remaining",
        "on_complete",
        "rate",
        "efficiency",
        "done",
        "label",
        "is_loopback",
        "span",
        "seq",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        mb: float,
        on_complete: Optional[Callable[[], None]],
        efficiency: float,
        label: str,
    ) -> None:
        self.src = src
        self.dst = dst
        self.remaining = mb
        self.on_complete = on_complete
        self.rate = 0.0
        self.efficiency = efficiency
        self.done = False
        self.label = label
        self.is_loopback = False
        self.span = None  # tracer span while tracing is enabled
        #: start order among the fabric's cross-host flows; orders the
        #: links of a rebalance's fill
        self.seq = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Flow({self.src}->{self.dst}, left={self.remaining:.1f}MB)"


class _HostLinks:
    """A host's link capacities and co-location group; the flows on its
    links live in the fabric's per-link maps."""

    __slots__ = ("up", "down", "loopback", "group", "nic_scale")

    def __init__(self, up: float, down: float, loopback: float, group: str) -> None:
        self.up = up
        self.down = down
        self.loopback = loopback
        self.group = group
        #: transient capacity multiplier in (0, 1] -- a degraded NIC
        #: (fault injection) rate-caps every flow crossing this host
        self.nic_scale = 1.0


def maxmin_fill(component: List[tuple], links: Dict[str, _HostLinks]) -> None:
    """Progressive-filling max-min fair rates for one rebalance's links.

    ``component`` holds one record ``(seq, direction, host, flows)`` per
    link, as :meth:`NetworkFabric._component_links` builds them:
    direction 0 is ``links[host].up``, 1 is ``links[host].down``, and
    ``flows`` are the link's unblocked flows in start order.  Every flow
    crosses one uplink and one downlink of the list.  Each round fixes
    the unfixed flows of the most-constrained link (lowest fair share,
    first in list order wins within ``_EPS``), sets their ``rate`` and
    charges it to their other link.  A flow whose other link is already
    done was fixed in an earlier round.  Per-link *unfixed counts* are
    maintained incrementally, so each round costs O(links) and fixing
    flows amortizes to O(flows) over the whole fill.

    The fill feeds completion-event timestamps, so it must stay
    bit-identical to the plain per-link oracle in ``tests/maxmin_oracle.py``;
    the property tests fuzz that on randomized topologies.
    """
    # host -> link index per direction: str hashes are cached by the
    # interpreter, so these lookups allocate nothing
    up_id: Dict[str, int] = {}
    down_id: Dict[str, int] = {}
    cap: List[float] = []
    active_n: List[int] = []
    remaining = 0
    for k, (_, direction, host, flows) in enumerate(component):
        host_links = links[host]
        count = len(flows)
        active_n.append(count)
        if direction:
            down_id[host] = k
            cap.append(host_links.down * host_links.nic_scale)
        else:
            up_id[host] = k
            cap.append(host_links.up * host_links.nic_scale)
            remaining += count
    done = bytearray(len(cap))
    link_range = range(len(cap))
    while remaining:
        best = -1
        best_share = math.inf
        for k in link_range:
            count = active_n[k]
            if count == 0:
                continue
            share = cap[k] / count
            if share < best_share - _EPS:
                best_share = share
                best = k
        if best < 0:
            break
        done[best] = 1
        _, direction, _, flows = component[best]
        other_id = up_id if direction else down_id
        for flow in flows:
            k = other_id[flow.src if direction else flow.dst]
            if done[k]:
                continue
            flow.rate = best_share
            # charge this flow's rate to its other link
            residual = cap[k] - best_share
            cap[k] = residual if residual > 0.0 else 0.0
            active_n[k] -= 1
            remaining -= 1
        active_n[best] = 0
        cap[best] = 0.0


#: placeholder, not a fill: ``perfbench/layers.py`` patches this name and
#: raises ``KeyError`` without it -- remove the two together
maxmin_flow_rates_vec = None


class NetworkFabric:
    """All NICs plus loopbacks of a cluster; owns active flow state."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._links: Dict[str, _HostLinks] = {}
        # insertion-ordered flow sets: O(1) add/remove, deterministic
        # iteration in start order (the order the old list gave)
        self._flows: Dict[Flow, None] = {}
        self._loop_flows: Dict[Flow, None] = {}
        #: per-link flow maps, host -> its link's live flows in start
        #: order: cross-host flows under their source's uplink and their
        #: destination's downlink, loopback flows under their source
        #: (out) and destination (in).  A host has an entry only while
        #: that link carries flows; an idle link reads as empty.
        self._up_flows: Dict[str, Dict[Flow, None]] = {}
        self._down_flows: Dict[str, Dict[Flow, None]] = {}
        self._loop_out: Dict[str, Dict[Flow, None]] = {}
        self._loop_in: Dict[str, Dict[Flow, None]] = {}
        #: start counter of cross-host flows (``Flow.seq``)
        self._flow_seq = 0
        self._last_update = sim.now
        self._completion_event: Optional[Event] = None
        self.bytes_transferred_mb = 0.0
        self.cross_host_mb = 0.0
        #: (host, direction) links whose membership changed since the
        #: last rebalance -- seeds for the incremental component fill
        self._dirty: Set[tuple] = set()
        #: active network partition: a cut between two host sets.  Flows
        #: crossing the cut stall at rate 0 (TCP keeps retrying) until
        #: :meth:`heal_partition`; loopback flows are never cut.
        self._partition: Optional[Tuple[FrozenSet[str], FrozenSet[str]]] = None
        #: reentrant batch depth: while > 0, every change only
        #: accumulates dirty marks and the closing fill runs once at the
        #: outermost end_batch (see begin_batch)
        self._batch_depth = 0

    def begin_batch(self) -> None:
        """Open a flow-mutation batch: one advance now, one fill at close.

        Several flow starts/cancels inside a single simulation event each
        trigger an identical-result rebalance today (no virtual time can
        pass between them), so a shuffle pump starting a dozen fetches
        pays a dozen fills for the price of one.  Between begin_batch and
        the matching end_batch, mutations only update memberships and
        dirty marks; the outermost end_batch runs the single closing fill
        over the components of the accumulated dirty links.  Max-min
        allocations are a pure function of the final membership, so the
        rates are the unbatched sequence's, except that one fill over
        several components can resolve near-ties (within ``_EPS``)
        differently from each component's own fill (docs/networking.md).
        Reentrant (nested batches no-op).
        """
        self._batch_depth += 1
        if self._batch_depth == 1:
            # depth is raised first: completion callbacks fired by this
            # advance (and any batches they open) stay inside the batch
            self._advance()

    def end_batch(self) -> None:
        """Close a batch; the outermost close runs the deferred fill."""
        if self._batch_depth <= 0:
            raise RuntimeError("end_batch without begin_batch")
        self._batch_depth -= 1
        if self._batch_depth == 0:
            self._rebalance()

    def register_host(
        self,
        host: str,
        up_mbps: float = 119.0,
        down_mbps: float = 119.0,
        loopback_mbps: float = 2000.0,
        group: Optional[str] = None,
    ) -> None:
        """Declare a host and its NIC capacities (MB/s).

        ``group`` marks co-location: flows between hosts of the same
        group (e.g. two VMs on one physical machine) never touch the
        NICs -- they ride the source's loopback channel.
        """
        if host in self._links:
            raise ValueError(f"host {host!r} already registered")
        self._links[host] = _HostLinks(up_mbps, down_mbps, loopback_mbps, group or host)

    def has_host(self, host: str) -> bool:
        return host in self._links

    def set_group(self, host: str, group: str) -> None:
        """Re-home a host to another co-location group (VM migration).

        Existing flows keep their channel; only future flows are
        classified by the new group.  Under a partition the move can
        block or free a cross-host flow with an endpoint here, which
        changes the membership of its other link too, so both links of
        each such flow are marked.
        """
        if host not in self._links:
            raise KeyError(f"unknown host {host!r}")
        if self._batch_depth == 0:
            self._advance()
        self._links[host].group = group
        self._mark_hosts((host,))
        dirty = self._dirty
        for flow in self._up_flows.get(host, ()):
            dirty.add((flow.dst, "down"))
        for flow in self._down_flows.get(host, ()):
            dirty.add((flow.src, "up"))
        if self._batch_depth == 0:
            self._rebalance()

    def colocated(self, a: str, b: str) -> bool:
        return a == b or self._links[a].group == self._links[b].group

    # ------------------------------------------------------------------
    # fault injection surface (repro.chaos)
    # ------------------------------------------------------------------
    def set_nic_scale(self, host: str, scale: float) -> None:
        """Degrade (or restore) a host's NIC to ``scale`` of capacity.

        Models a flapping/renegotiated link: every flow crossing the
        host's uplink or downlink is rate-capped proportionally.  Use
        ``scale=1.0`` to heal; full blocks go through :meth:`partition`.
        """
        if host not in self._links:
            raise KeyError(f"unknown host {host!r}")
        if not 0.0 < scale <= 1.0:
            raise ValueError("nic scale must be in (0, 1]")
        if self._batch_depth == 0:
            self._advance()
        self._links[host].nic_scale = scale
        self.sim.obs.metrics.gauge(f"net.nic_scale.{host}").set(scale)
        self._mark_hosts((host,))
        if self._batch_depth == 0:
            self._rebalance()

    def nic_scale(self, host: str) -> float:
        return self._links[host].nic_scale

    def partition(self, side_a: Iterable[str], side_b: Iterable[str]) -> None:
        """Cut the network between two host sets.

        Cross-cut flows stall at rate 0 but stay queued -- they resume
        where they left off on :meth:`heal_partition`, like TCP
        connections riding out a switch outage.  Only one partition can
        be active at a time (chaos schedules serialize them).
        """
        a, b = frozenset(side_a), frozenset(side_b)
        if a & b:
            raise ValueError(f"partition sides overlap: {sorted(a & b)}")
        for host in a | b:
            if host not in self._links:
                raise KeyError(f"unknown host {host!r}")
        if self._partition is not None:
            raise RuntimeError("a partition is already active")
        if self._batch_depth == 0:
            self._advance()
        self._partition = (a, b)
        self.sim.obs.metrics.counter("net.partitions").inc()
        self._mark_hosts(a | b)
        if self._batch_depth == 0:
            self._rebalance()

    def heal_partition(self) -> None:
        """Remove the active partition (no-op when none is active)."""
        if self._partition is None:
            return
        if self._batch_depth == 0:
            self._advance()
        a, b = self._partition
        self._partition = None
        self._mark_hosts(a | b)
        if self._batch_depth == 0:
            self._rebalance()

    @property
    def partitioned(self) -> bool:
        return self._partition is not None

    def is_blocked(self, src: str, dst: str) -> bool:
        """True when the active partition separates ``src`` and ``dst``."""
        if self._partition is None or self.colocated(src, dst):
            return False
        a, b = self._partition
        return (src in a and dst in b) or (src in b and dst in a)

    def flows_from(self, host: str) -> List[Flow]:
        """Live flows whose source endpoint is ``host``.

        Includes loopback flows (same-host / same-group transfers), so
        chaos node-kills can see and cancel fetches from a dead host
        even when the fetcher shares its physical machine.  Cross-host
        flows first (start order), then loopback flows.  O(result).
        """
        return list(self._up_flows.get(host, ())) + list(self._loop_out.get(host, ()))

    def flows_to(self, host: str) -> List[Flow]:
        """Live flows whose destination endpoint is ``host``.

        Mirror of :meth:`flows_from`: cross-host flows entering the
        host's downlink plus loopback flows terminating on it.
        """
        return list(self._down_flows.get(host, ())) + list(self._loop_in.get(host, ()))

    def start_flow(
        self,
        src: str,
        dst: str,
        mb: float,
        on_complete: Optional[Callable[[], None]] = None,
        efficiency: float = 1.0,
        label: str = "",
    ) -> Flow:
        """Begin transferring ``mb`` megabytes from ``src`` to ``dst``."""
        for host in (src, dst):
            if host not in self._links:
                raise KeyError(f"unknown host {host!r}")
        if mb < 0:
            raise ValueError("flow size must be non-negative")
        if self._batch_depth == 0:
            self._advance()
        flow = Flow(src, dst, mb, on_complete, efficiency, label)
        obs = self.sim.obs
        obs.metrics.counter("net.flows.started").inc()
        if mb <= _EPS:
            flow.done = True
            obs.metrics.counter("net.flows.completed").inc()
            if on_complete is not None:
                self.sim.schedule(0.0, on_complete)
            if self._batch_depth == 0:
                self._rebalance()
            return flow
        # a link's first live flow makes its map (_detach drops it with
        # the last)
        if self.colocated(src, dst):
            flow.is_loopback = True
            self._loop_flows[flow] = None
            out_flows = self._loop_out.get(src)
            if out_flows is None:
                self._loop_out[src] = {flow: None}
            else:
                out_flows[flow] = None
            in_flows = self._loop_in.get(dst)
            if in_flows is None:
                self._loop_in[dst] = {flow: None}
            else:
                in_flows[flow] = None
            self._dirty.add((src, "loop"))
        else:
            flow.seq = self._flow_seq = self._flow_seq + 1
            self._flows[flow] = None
            up_flows = self._up_flows.get(src)
            if up_flows is None:
                self._up_flows[src] = {flow: None}
            else:
                up_flows[flow] = None
            down_flows = self._down_flows.get(dst)
            if down_flows is None:
                self._down_flows[dst] = {flow: None}
            else:
                down_flows[flow] = None
            self._dirty.add((src, "up"))
            self._dirty.add((dst, "down"))
        if obs.tracer.enabled:
            flow.span = obs.tracer.begin(
                label or f"{src}->{dst}",
                category="net",
                track=f"net:{dst}",
                src=src,
                dst=dst,
                mb=mb,
                loopback=flow.is_loopback,
                # NIC efficiency at launch: <1 marks virtualization tax
                # on this transfer (blame: network virt share)
                eff=efficiency,
            )
        if self._batch_depth == 0:
            self._rebalance()
        return flow

    def cancel_flow(self, flow: Flow) -> None:
        if flow.done:
            return
        if self._batch_depth == 0:
            self._advance()
        # a flow that drained in that advance has finished as usual
        if not flow.done:
            self._detach(flow)
            flow.done = True
            flow.rate = 0.0
            obs = self.sim.obs
            obs.metrics.counter("net.flows.cancelled").inc()
            if flow.span is not None:
                obs.tracer.end(flow.span, cancelled=True, left_mb=flow.remaining)
                flow.span = None
        if self._batch_depth == 0:
            self._rebalance()

    # ------------------------------------------------------------------
    # internals (same advance/rebalance discipline as ResourcePool)
    # ------------------------------------------------------------------
    def _detach(self, flow: Flow) -> None:
        """Unlink a flow from the global and per-link indexes, O(1).

        Marks the flow's links dirty so the next rebalance re-fills the
        component that just lost a member, and drops each link's map
        with its last flow.  Called once per flow, when it finishes or is
        cancelled (a flow is in the indexes until done).
        """
        src = flow.src
        dst = flow.dst
        if flow.is_loopback:
            del self._loop_flows[flow]
            out_flows = self._loop_out[src]
            del out_flows[flow]
            if not out_flows:
                del self._loop_out[src]
            in_flows = self._loop_in[dst]
            del in_flows[flow]
            if not in_flows:
                del self._loop_in[dst]
            self._dirty.add((src, "loop"))
        else:
            del self._flows[flow]
            up_flows = self._up_flows[src]
            del up_flows[flow]
            if not up_flows:
                del self._up_flows[src]
            down_flows = self._down_flows[dst]
            del down_flows[flow]
            if not down_flows:
                del self._down_flows[dst]
            self._dirty.add((src, "up"))
            self._dirty.add((dst, "down"))

    def _mark_hosts(self, hosts: Iterable[str]) -> None:
        """Mark the uplink and downlink of every host dirty."""
        dirty = self._dirty
        for host in hosts:
            dirty.add((host, "up"))
            dirty.add((host, "down"))

    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0:
            return
        finished: List[Flow] = []
        bytes_moved = self.bytes_transferred_mb
        cross_moved = self.cross_host_mb
        # cross-host flows in start order, then loopback flows: the same
        # iteration (and hence completion-callback) order the flat list
        # scan produced, with identical per-flow arithmetic
        for flow in self._flows:
            rate = flow.rate
            if rate <= _EPS:
                continue
            moved = rate * flow.efficiency * dt
            remaining = flow.remaining
            if moved > remaining:
                moved = remaining
            flow.remaining = remaining - moved
            bytes_moved += moved
            cross_moved += moved
            if flow.remaining <= _EPS:
                finished.append(flow)
        for flow in self._loop_flows:
            rate = flow.rate
            if rate <= _EPS:
                continue
            moved = rate * flow.efficiency * dt
            remaining = flow.remaining
            if moved > remaining:
                moved = remaining
            flow.remaining = remaining - moved
            bytes_moved += moved
            if flow.remaining <= _EPS:
                finished.append(flow)
        self.bytes_transferred_mb = bytes_moved
        self.cross_host_mb = cross_moved
        if finished:
            self._complete(finished)

    def _complete(self, finished: List[Flow]) -> None:
        """Finish drained flows, in order, and run their callbacks."""
        obs = self.sim.obs
        prof = self.sim.prof
        for flow in finished:
            if flow.done:
                # a sibling's completion callback in this same batch
                # cancelled it (speculative-kill races); cancel_flow
                # already detached it, so completing it again -- or
                # blindly removing it -- would be wrong
                continue
            self._detach(flow)
            flow.done = True
            flow.rate = 0.0
            obs.metrics.counter("net.flows.completed").inc()
            if flow.span is not None:
                obs.tracer.end(flow.span)
                flow.span = None
            if flow.on_complete is not None:
                if prof is None:
                    flow.on_complete()
                else:
                    _profiled_call(prof, flow.on_complete)

    def _component_links(self, seeds: Set[tuple]) -> List[tuple]:
        """Fill records for the links of the connected components of
        unblocked cross-host flows reachable from the seed links.

        Walks the per-link membership indexes: a flow joins the
        component when either of its links is reachable, and brings its
        other link with it; an idle link has no map and reaches nothing.
        A flow the active partition blocks connects nothing, and every
        blocked flow on a reached link is pinned at rate 0.  Each reached
        link that carries unblocked flows gives one
        :func:`maxmin_fill` record ``(seq, direction, host, flows)``:
        ``flows`` is the link's own flow dict (under a partition, the list
        of its unblocked flows) and ``seq`` its first flow's.  Sorted,
        the records list the links in order of first use over the
        component's flows in start order, uplink before downlink within a
        flow -- the order the fill's tie-break depends on
        (docs/networking.md).  Loopback seeds are handled separately (the
        loopback channel shares with nothing).
        """
        up_flows = self._up_flows
        down_flows = self._down_flows
        partitioned = self._partition is not None
        up_stack = [h for (h, d) in seeds if d == "up"]
        down_stack = [h for (h, d) in seeds if d == "down"]
        seen_up = set(up_stack)
        seen_down = set(down_stack)
        component = []
        while up_stack or down_stack:
            if up_stack:
                host = up_stack.pop()
                flows = up_flows.get(host)
                if flows is None:
                    continue
                if partitioned:
                    flows = self._unblocked(flows)
                for flow in flows:
                    dst = flow.dst
                    if dst not in seen_down:
                        seen_down.add(dst)
                        down_stack.append(dst)
                if flows:
                    component.append((next(iter(flows)).seq, 0, host, flows))
            else:
                host = down_stack.pop()
                flows = down_flows.get(host)
                if flows is None:
                    continue
                if partitioned:
                    flows = self._unblocked(flows)
                for flow in flows:
                    src = flow.src
                    if src not in seen_up:
                        seen_up.add(src)
                        up_stack.append(src)
                if flows:
                    component.append((next(iter(flows)).seq, 1, host, flows))
        # (seq, direction) is unique per link, so the sort never
        # compares hosts or flow collections
        component.sort()
        return component

    def _unblocked(self, flows: Iterable[Flow]) -> List[Flow]:
        """The flows the active partition does not block, in order; the
        blocked ones are pinned at rate 0."""
        is_blocked = self.is_blocked
        unblocked = []
        for flow in flows:
            if is_blocked(flow.src, flow.dst):
                flow.rate = 0.0
            else:
                unblocked.append(flow)
        return unblocked

    def _rebalance(self) -> None:
        """Re-fill the components reachable from the dirty links.

        Max-min allocations of link-disjoint flow sets are independent,
        so flows outside them keep their rates.
        """
        dirty = self._dirty
        if dirty:
            prof = self.sim.prof
            self._dirty = set()
            component = self._component_links(dirty)
            # the fill is called through the module global, the name
            # external profilers and tests patch
            if component:
                if prof is None:
                    maxmin_fill(component, self._links)
                else:
                    prof.gauge("net.dirty_links", len(dirty))
                    # every flow crosses exactly one reached uplink
                    prof.gauge(
                        "net.rebalance_component_flows",
                        sum(len(rec[3]) for rec in component if not rec[1]),
                    )
                    prof.push("net.maxmin_fill", subsystem="repro.sim.network")
                    try:
                        maxmin_fill(component, self._links)
                    finally:
                        prof.pop()
            # loopback channels are per-source-host and share with
            # nothing else: recompute only the touched hosts
            for host, direction in dirty:
                if direction != "loop":
                    continue
                loop_out = self._loop_out.get(host)
                if loop_out is not None:
                    share = self._links[host].loopback / len(loop_out)
                    for flow in loop_out:
                        flow.rate = share
        self._reschedule_completion()

    def _reschedule_completion(self) -> None:
        """Point the single completion event at the soonest finish.

        The scan is O(live flows) but does the identical division the
        historical full scan performed, so the scheduled instant -- and
        with it every downstream timestamp -- is bit-exact with the
        pre-indexed implementation.
        """
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        next_eta = math.inf
        for flow in self._flows:
            rate = flow.rate * flow.efficiency
            if rate <= _EPS:
                continue
            remaining = flow.remaining
            eta = 0.0 if remaining <= _EPS else remaining / rate
            if eta < next_eta:
                next_eta = eta
        for flow in self._loop_flows:
            rate = flow.rate * flow.efficiency
            if rate <= _EPS:
                continue
            remaining = flow.remaining
            eta = 0.0 if remaining <= _EPS else remaining / rate
            if eta < next_eta:
                next_eta = eta
        if math.isfinite(next_eta):
            self._completion_event = self.sim.schedule(
                max(0.0, next_eta), self._tick
            )

    def _tick(self) -> None:
        self._completion_event = None
        now = self.sim.now
        # a tick at the instant of the last advance was scheduled for a
        # finish below the clock's resolution (now + eta == now), which
        # no advance can reach: those flows finish at this instant
        stalled = now == self._last_update
        # begin_batch advances (running the completion callbacks); any
        # flows those callbacks start or cancel ride the single closing
        # fill instead of each paying their own
        self.begin_batch()
        if stalled:
            self._complete([
                flow
                for flows in (self._flows, self._loop_flows)
                for flow in flows
                if flow.rate * flow.efficiency > _EPS
                and now + flow.remaining / (flow.rate * flow.efficiency) == now
            ])
        self.end_batch()
