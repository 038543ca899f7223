"""Per-link max-min oracle for :func:`repro.sim.network.maxmin_fill`.

The plainest statement of progressive filling: links are keyed by
``(host, direction)`` in a dict, and every round rescans each link's
user list for flows not yet fixed.  It is too slow for the simulator
but easy to check by eye, so the tests hold the indexed fill to it
bit-for-bit.  The two share their tie-break (``share < best - EPS``,
first link in insertion order wins) and their float operations, which
is what makes exact equality the right assertion.

:func:`fill_flow_list` runs the fill itself over a plain flow list, so
the tests can hand both the same input.
"""

import math
from typing import Dict, List

from repro.sim.network import _EPS, maxmin_fill


def maxmin_flow_rates(flows: List, links: Dict) -> List[float]:
    """Progressive-filling max-min fair rates for cross-host flows.

    Each flow crosses ``links[src].up`` and ``links[dst].down``.
    """
    n = len(flows)
    rates = [0.0] * n
    if n == 0:
        return rates
    # remaining capacity per (host, direction) link
    cap: Dict[tuple, float] = {}
    users: Dict[tuple, List[int]] = {}
    for i, flow in enumerate(flows):
        src_links, dst_links = links[flow.src], links[flow.dst]
        src_scale = getattr(src_links, "nic_scale", 1.0)
        dst_scale = getattr(dst_links, "nic_scale", 1.0)
        for key, capacity in (
            ((flow.src, "up"), src_links.up * src_scale),
            ((flow.dst, "down"), dst_links.down * dst_scale),
        ):
            cap.setdefault(key, capacity)
            users.setdefault(key, []).append(i)
    unfixed = set(range(n))
    while unfixed:
        # find the most constrained link
        best_key = None
        best_share = math.inf
        for key, flow_ids in users.items():
            active = [i for i in flow_ids if i in unfixed]
            if not active:
                continue
            share = cap[key] / len(active)
            if share < best_share - _EPS:
                best_share = share
                best_key = key
        if best_key is None:
            break
        for i in [i for i in users[best_key] if i in unfixed]:
            rates[i] = best_share
            unfixed.discard(i)
            # charge this flow's rate to its other link
            for key in ((flows[i].src, "up"), (flows[i].dst, "down")):
                if key != best_key:
                    cap[key] = max(0.0, cap[key] - best_share)
        cap[best_key] = 0.0
    return rates


def fill_flow_list(flows: List, links: Dict) -> List[float]:
    """:func:`maxmin_fill` over ``flows`` taken as started in list order.

    Builds the fill's link records the way the fabric's component walk
    orders them: one record per link, in order of first use over the
    list (a flow's uplink before its downlink), each holding the link's
    flows in list order.  The fill sets ``flow.rate``; the rates come
    back in list order.
    """
    records: Dict[tuple, tuple] = {}
    for i, flow in enumerate(flows):
        for host, direction in ((flow.src, 0), (flow.dst, 1)):
            record = records.get((host, direction))
            if record is None:
                records[host, direction] = (i, direction, host, [flow])
            else:
                record[3].append(flow)
    maxmin_fill(list(records.values()), links)
    return [flow.rate for flow in flows]
