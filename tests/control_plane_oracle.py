"""Scan oracles for the JobTracker's, NameNode's and shuffle's indexes.

These are the plain scans the indexes replaced: the dispatcher's
``min()`` over every free tracker, ``local_task``'s walk over pending
tasks x replica holders, the shuffle pump's ``max()`` over a reducer's
backlog, and ``choose_targets``' rescan of every DataNode for each
replica (its ``preferred_pm`` filter included).  They are too slow for a
10k-host fleet but easy to check by eye, so the tests hold the indexes
to them exactly -- the same tracker, task, host and targets, the same
error text and the same ``rng`` state after every call.
"""

from typing import Dict, List, Optional

from repro.mapreduce.task import TaskKind


def load_by_pm(trackers) -> Dict[int, int]:
    """id(PM) -> running attempts, summed over the whole fleet."""
    load: Dict[int, int] = {}
    for t in trackers:
        key = id(t.context.pm)
        load[key] = load.get(key, 0) + len(t.running)
    return load


def pick_tracker(trackers, kind: TaskKind, load: Dict[int, int]):
    """The free tracker with the least ``(PM load, running, name)``."""
    if kind is TaskKind.MAP:
        free = [t for t in trackers if t.free_map_slots() > 0]
    else:
        free = [t for t in trackers if t.free_reduce_slots() > 0]
    if not free:
        return None
    return min(
        free,
        key=lambda t: (load.get(id(t.context.pm), 0), len(t.running), t.name),
    )


def local_task(namenode, tracker, tasks):
    """``JobTracker.local_task`` as a scan: the first of ``tasks`` with a
    replica on ``tracker``'s context, else the first with one on its
    physical machine, else ``None``."""
    host_local = None
    context = tracker.context
    for task in tasks:
        for holder in namenode.replica_holders(task.block):
            if holder.context is context:
                return task
            if host_local is None and holder.context.pm is context.pm:
                host_local = task
    return host_local


def next_fetch(pending: Dict[str, float]) -> str:
    """The host a reducer's shuffle pump fetches from next: the largest
    backlog, the larger host name on equal MB."""
    return max(pending, key=lambda h: (pending[h], h))


def choose_targets(
    namenode,
    block,
    replication: int,
    preferred_pm: Optional[object] = None,
    reserve: bool = False,
) -> List:
    """``NameNode.choose_targets`` as a scan of ``namenode.datanodes``."""
    if replication <= 0:
        raise ValueError("replication must be positive")
    existing = set(namenode.replicas.get(block.block_id, []))
    candidates = [d for d in namenode.datanodes.values() if d.name not in existing]
    if len(candidates) < replication:
        raise RuntimeError(
            f"not enough DataNodes for replication={replication} "
            f"(have {len(candidates)})"
        )
    targets = []
    if preferred_pm is not None:
        local = [d for d in candidates if d.context.pm is preferred_pm]
        if local:
            local.sort(key=lambda d: (d.committed_mb, d.name))
            targets.append(local[0])
            candidates.remove(local[0])
    while len(targets) < replication:
        least = min(d.committed_mb for d in candidates)
        pool = [d for d in candidates if d.committed_mb <= least + 1e-9]
        pick = pool[namenode.rng.randrange(len(pool))]
        targets.append(pick)
        candidates.remove(pick)
    if reserve:
        for target in targets:
            target.reserve(block.size_mb)
    return targets
