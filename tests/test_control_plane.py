"""The control-plane indexes against the scans they replaced.

``JobTracker._pick_tracker`` (name-order cursor plus a loaded-fleet
``min()``), ``JobTracker.local_task`` (the job's locality index),
``TaskAttempt._next_fetch`` (a lazy max-heap over the shuffle backlog)
and ``NameNode.choose_targets`` (committed-bytes buckets and each PM's
DataNode list) must make exactly the choices of the scan oracles in
``tests/control_plane_oracle.py``: the same tracker, task and host on
the same state, the same targets, the same error text and the same
``rng`` state.
"""

import random

from repro.cluster.cluster import Cluster
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.mapreduce import task as task_module
from repro.mapreduce.cluster import MapReduceCluster
from repro.mapreduce.task import TaskAttempt, TaskKind
from repro.sim.engine import Simulator
from repro.workloads.specs import make_job
from repro.zoo import create_policy
from tests import control_plane_oracle as oracle

# ----------------------------------------------------------------------
# NameNode: committed-bytes index vs the scan
# ----------------------------------------------------------------------
#: sizes whose sums and differences leave float residues (0.1 + 0.2 ...)
_SIZES = (0.1, 0.2, 0.3, 0.7, 1.0, 64.0 / 3.0, 5e-10)


class _PM:
    """Just enough of a physical machine: the DataNodes on it, which the
    NameNode keeps and ``choose_targets`` reads for ``preferred_pm``."""

    def __init__(self):
        self.datanodes = ()


class _Context:
    """Just enough of an execution context for a DataNode: writes park
    their completion callbacks in the world until the history runs them."""

    def __init__(self, name, pm, world):
        self.name = name
        self.host = name
        self.pm = pm
        self._world = world

    def run_disk(self, mb, on_complete=None, **kwargs):
        self._world.in_flight.append(on_complete)


class _World:
    """One NameNode plus its DataNodes, driven by ``choose``."""

    def __init__(self, seed, n_pms, choose):
        self.nn = NameNode(rng=random.Random(seed))
        self.choose = choose
        self.pms = [_PM() for _ in range(n_pms)]
        self.contexts = []
        self.retired = []  # decommissioned DataNodes, in order
        self.in_flight = []

    def add_context(self, pm_index):
        ctx = _Context(f"ctx{len(self.contexts)}", self.pms[pm_index], self)
        self.contexts.append(ctx)

    def register(self, name, ctx_index):
        self.nn.register_datanode(DataNode(name, self.contexts[ctx_index]))

    def reregister(self, index):
        self.nn.register_datanode(self.retired.pop(index))

    def decommission(self, name):
        self.retired.append(self.nn.datanodes[name])
        self.nn.decommission_datanode(name)

    def place(self, block, replication, pm_index=None, reserve=False):
        """``choose`` for one block; the names chosen, or the error text."""
        pm = None if pm_index is None else self.pms[pm_index]
        try:
            targets = self.choose(self.nn, block, replication, pm, reserve)
        except (RuntimeError, ValueError) as exc:
            return None, f"{type(exc).__name__}: {exc}"
        return targets, [d.name for d in targets]

    def preload(self, name, size, block_size, replication):
        out = []
        for block in self.nn.allocate_file(name, size, block_size):
            targets, seen = self.place(block, replication)
            out.append(seen)
            for target in targets or ():
                target.store_instantly(block)
                self.nn.record_replica(block, target.name)
        return out

    def write(self, name, size, block_size, replication, pm_index):
        out = []
        for block in self.nn.allocate_file(name, size, block_size):
            targets, seen = self.place(block, replication, pm_index, reserve=True)
            out.append(seen)
            for target in targets or ():
                target.write_block(block, self._recorder(block, target))
        return out

    def re_replicate(self, file_index, block_index, pm_index):
        files = [blocks for blocks in self.nn.files.values() if blocks]
        if not files:
            return None
        blocks = files[file_index % len(files)]
        block = blocks[block_index % len(blocks)]
        # a preferred PM may hold a replica already, which it must skip
        targets, seen = self.place(block, 1, pm_index)
        for target in targets or ():
            if not target.holds(block):
                target.write_block(block, self._recorder(block, target))
        return seen

    def _recorder(self, block, target):
        # the write pipeline's bookkeeping: a replica lands only on a
        # live target of a file that still exists
        nn = self.nn

        def record():
            holders = nn.replicas.get(block.block_id)
            if holders is None or nn.datanodes.get(target.name) is not target:
                if target.holds(block):
                    target.drop(block)
            elif target.name not in holders:
                nn.record_replica(block, target.name)

        return record

    def complete(self, index):
        self.in_flight.pop(index)()

    def delete(self, file_index):
        names = list(self.nn.files)
        if names:
            self.nn.delete_file(names[file_index % len(names)])

    def state(self):
        return (
            [(d.name, d.committed_mb, d.used_mb, d.pending_mb)
             for d in self.nn.datanodes.values()],
            {k: list(v) for k, v in self.nn.replicas.items()},
            self.nn.rng.getstate(),
        )


def _assert_index_consistent(nn, pms=()):
    """Every registered DataNode sits in the bucket of its committed
    bytes, and in its machine's DataNode list, which holds nothing else."""
    filed = {}
    for level, ranks in nn._levels.items():
        assert ranks == sorted(ranks) and ranks
        for rank in ranks:
            filed[rank] = level
    assert nn._level_keys == sorted(nn._levels)
    assert sorted(filed) == sorted(d.rank for d in nn.datanodes.values())
    for d in nn.datanodes.values():
        assert nn._ranked[d.rank] is d
        assert filed[d.rank] == d.committed_mb
        assert d.context.pm.datanodes.count(d) == 1
    for pm in pms:
        for d in pm.datanodes:
            assert d.context.pm is pm and nn.datanodes.get(d.name) is d


def _namenode_history(seed, steps=60):
    """Run one random history on the indexed NameNode and on the scan
    oracle in lockstep, comparing after every call."""
    ops = random.Random(seed)
    n_pms = ops.randint(1, 4)
    worlds = [
        _World(seed, n_pms, NameNode.choose_targets),
        _World(seed, n_pms, oracle.choose_targets),
    ]
    n_contexts = ops.randint(2, 6)
    for i in range(n_contexts):
        pm_index = ops.randrange(n_pms)
        for w in worlds:
            w.add_context(pm_index)
    next_dn = 0
    for _ in range(ops.randint(1, 5)):
        ctx_index = ops.randrange(n_contexts)
        for w in worlds:
            w.register(f"dn{next_dn}", ctx_index)
        next_dn += 1
    next_file = 0
    for step in range(steps):
        op = ops.choice(
            ("register", "register", "decommission", "reregister", "preload",
             "preload", "write", "write", "complete", "complete", "complete",
             "delete", "re_replicate")
        )
        a, b = worlds
        if op == "register":
            ctx_index = ops.randrange(n_contexts)
            for w in worlds:
                w.register(f"dn{next_dn}", ctx_index)
            next_dn += 1
        elif op == "decommission" and len(a.nn.datanodes) > 1:
            name = ops.choice(list(a.nn.datanodes))
            for w in worlds:
                w.decommission(name)
        elif op == "reregister" and a.retired:
            index = ops.randrange(len(a.retired))
            for w in worlds:
                w.reregister(index)
        elif op in ("preload", "write"):
            size = sum(ops.choice(_SIZES) for _ in range(ops.randint(1, 4)))
            # at most about eight blocks per file
            block_size = max(ops.choice(_SIZES + (size,)), size / 8)
            replication = ops.choice((0, 1, 1, 2, 2, 3, 7))
            name = f"f{next_file}"
            next_file += 1
            if op == "preload":
                seen = [w.preload(name, size, block_size, replication) for w in worlds]
            else:
                pm_index = ops.choice((None, ops.randrange(n_pms)))
                seen = [
                    w.write(name, size, block_size, replication, pm_index)
                    for w in worlds
                ]
            assert seen[0] == seen[1], (seed, step, op)
        elif op == "complete" and a.in_flight:
            index = ops.randrange(len(a.in_flight))
            for w in worlds:
                w.complete(index)
        elif op == "delete":
            file_index = ops.randrange(1000)
            for w in worlds:
                w.delete(file_index)
        elif op == "re_replicate":
            at = (
                ops.randrange(1000),
                ops.randrange(1000),
                ops.choice((None, ops.randrange(n_pms))),
            )
            seen = [w.re_replicate(*at) for w in worlds]
            assert seen[0] == seen[1], (seed, step, op)
        assert a.state() == b.state(), (seed, step, op)
        for w in worlds:
            _assert_index_consistent(w.nn, w.pms)
    return next_file


def test_choose_targets_matches_scan_oracle():
    files = sum(_namenode_history(seed) for seed in range(200))
    assert files > 1000  # the histories really placed data


def test_choose_targets_float_residue_ties():
    """Levels within 1e-9 MB of the least share one tie pool."""
    ctx = _Context("c", _PM(), None)
    nn = NameNode(rng=random.Random(3))
    ref = NameNode(rng=random.Random(3))
    for namenode in (nn, ref):
        for i in range(6):
            namenode.register_datanode(DataNode(f"dn{i}", ctx))
        # 0.1 + 0.2 - 0.3 leaves a 5.6e-17 residue on dn1; dn4 is 1e-10 up
        namenode.datanodes["dn1"].reserve(0.1)
        namenode.datanodes["dn1"].reserve(0.2)
        namenode.datanodes["dn1"].reserve(-0.3)
        namenode.datanodes["dn4"].reserve(1e-10)
        namenode.datanodes["dn2"].reserve(1.0)
    assert 0.0 < nn.datanodes["dn1"].committed_mb < 1e-9
    assert len(nn._levels) == 4
    block = nn.allocate_file("f", 1.0, 1.0)[0]
    ref_block = ref.allocate_file("f", 1.0, 1.0)[0]
    for _ in range(50):
        got = [d.name for d in nn.choose_targets(block, 3)]
        want = [d.name for d in oracle.choose_targets(ref, ref_block, 3)]
        assert got == want
        assert "dn2" not in got
        assert nn.rng.getstate() == ref.rng.getstate()


# ----------------------------------------------------------------------
# JobTracker: dispatch cursor, locality index and shuffle heap vs scans
# ----------------------------------------------------------------------
#: the default pick and the two zoo policies that ask ``local_task``
_POLICIES = (None, "delay", "jobdriven-map")


def _mixed_fleet(sim, rng):
    """PMs hosting a native context, a Dom-0 context and 0-3 VMs each,
    handed to the JobTracker in shuffled order."""
    cluster = Cluster(sim)
    contexts, vms = [], []
    for _ in range(rng.randint(2, 5)):
        pm = cluster.add_pm()
        if rng.random() < 0.5:
            contexts.append(pm.native)
        if rng.random() < 0.5:
            contexts.append(cluster.dom0(pm))
        for _ in range(rng.randint(0, 3)):
            vm = cluster.add_vm(pm)
            vms.append(vm)
            contexts.append(vm)
    if len(contexts) < 3:
        contexts.append(cluster.dom0(cluster.add_pm()))
    rng.shuffle(contexts)
    return cluster, contexts, vms


def _locality_kind(nn, tracker, task):
    if task is None:
        return "remote"
    holders = nn.replica_holders(task.block)
    if any(h.context is tracker.context for h in holders):
        return "node_local"
    return "host_local"


def _dispatch_history(seed, branches):
    rng = random.Random(seed)
    sim = Simulator(seed=seed)
    cluster, contexts, vms = _mixed_fleet(sim, rng)
    policy = _POLICIES[seed % len(_POLICIES)]
    # some fleets split storage from compute: DataNodes in Dom-0
    # contexts of their own, so host-local answers come from Dom-0
    storage = [cluster.dom0(pm) for pm in cluster.pms] if seed % 4 == 3 else None
    mr = MapReduceCluster(
        sim, cluster.fabric, contexts,
        storage_contexts=storage,
        map_slots=rng.randint(1, 2), reduce_slots=rng.randint(1, 2),
        scheduler=None if policy is None else create_policy(policy),
    )
    jt = mr.jt
    nn = mr.fs.namenode
    assert [t.name for t in jt._by_name] == sorted(t.name for t in jt.trackers)
    for tracker in jt.trackers[1:]:
        if rng.random() < 0.15:
            tracker.alive = False  # dead from the start
    in_round = {"state": None}

    real_pick = jt._pick_tracker

    def pick(kind, state):
        if in_round["state"] is not state:
            in_round["state"] = state
            # the busy-tracker sum equals the fleet sum at round start
            live = {k: v for k, v in state.load_by_pm.items() if v}
            want = {k: v for k, v in oracle.load_by_pm(jt.trackers).items() if v}
            assert live == want
        want = oracle.pick_tracker(jt.trackers, kind, state.load_by_pm)
        got = real_pick(kind, state)
        assert got is want, (seed, kind, got, want)
        if got is not None:
            key = (state.load_by_pm.get(id(got.context.pm), 0), len(got.running))
            branches["cursor" if key == (0, 0) else "min"] += 1
        return got

    real_local = jt.local_task

    def local_task(tracker, tasks):
        want = oracle.local_task(nn, tracker, tasks)
        got = real_local(tracker, tasks)
        assert got is want, (seed, policy, tracker.name, got, want)
        branches[_locality_kind(nn, tracker, want)] += 1
        return got

    real_launch = jt._launch

    def launch(task, tracker, speculative=False):
        attempt = real_launch(task, tracker, speculative)
        running = jt.running_attempts()
        if in_round["state"] is not None and running and rng.random() < 0.2:
            # a release landing mid-round: the next pick must see it,
            # and a map it reopens must be offered again
            rng.choice(running).kill()
            branches["released"] += 1
        return attempt

    real_dispatch = jt._dispatch

    def dispatch():
        real_dispatch()
        in_round["state"] = None
        # the busy set is exactly the trackers with running attempts
        assert set(jt._busy) == {t for t in jt.trackers if t.running}

    jt._pick_tracker = pick
    jt.local_task = local_task
    jt._launch = launch
    jt._dispatch = dispatch

    def input_safe(datanode):
        # losing ``datanode`` leaves every pending input block a replica
        # (and re-replication somewhere to put a new one)
        if len(nn.datanodes) < 3:
            return False
        for job in jt.active_jobs:
            for task in job.map_tasks:
                holders = nn.replica_holders(task.block)
                if datanode in holders and len(holders) < 2:
                    return False
        return True

    retired = []  # decommissioned DataNodes, for re-registration

    def re_replicate():
        # re-replications overlap: a copy in flight counts toward the
        # goal of the next call, which never copies the block again
        branches["overlapped"] += bool(mr.fs._copying)
        mr.fs.re_replicate(lambda: None)

    def disturb():
        # between rounds: relocate an idle VM, fail a node (its DataNode
        # too, then re-replicate) or repair one, or decommission and
        # re-register a DataNode
        roll = rng.random()
        idle = [
            vm for vm in vms
            if all(
                e.done
                for entries in (vm._cpu_entries, vm._disk_entries, vm._memio_entries)
                for e in entries
            )
        ]
        if roll < 0.3 and idle and len(cluster.pms) > 1:
            vm = rng.choice(idle)
            hosts_datanode = any(d.context is vm for d in vm.pm.datanodes)
            vm.relocate(rng.choice([pm for pm in cluster.pms if pm is not vm.pm]))
            branches["relocated"] += 1
            branches["relocated_datanode"] += hosts_datanode
        elif roll < 0.45:
            # half the failures hit a host whose map output some reducer
            # has yet to fetch, or is fetching
            fetching = [
                a for a in jt.running_attempts()
                if a.task.kind is TaskKind.REDUCE and not a._fetch_phase_over
            ]
            queued = {host for a in fetching for host in a._pending_fetch}
            flowing = {getattr(h, "src", None) for a in fetching for h in a._handles}
            feeding = (
                [c for c in contexts if c.host in queued]
                or [c for c in contexts if c.host in flowing]
            )
            ctx = rng.choice(feeding if feeding and rng.random() < 0.5 else contexts)
            datanode = mr.fs.datanode_on_context(ctx)
            if datanode is not None and input_safe(datanode):
                mr.fail_node(ctx, recover_hdfs=False)  # decommissions it
                re_replicate()
                branches["re_replicated"] += 1
            else:
                jt.handle_node_failure(ctx)
        elif roll < 0.65:
            mr.repair_node(rng.choice(contexts), rebalance_hdfs=False)
            re_replicate()
        elif roll < 0.75 and nn.datanodes:
            datanode = rng.choice(list(nn.datanodes.values()))
            if input_safe(datanode):
                nn.decommission_datanode(datanode.name)
                retired.append(datanode)
        elif roll < 0.85 and retired:
            # the same DataNode rejoins with wiped disks (re-replication
            # may pick it for a block it used to hold)
            datanode = retired.pop(rng.randrange(len(retired)))
            for block in list(datanode.blocks.values()):
                datanode.drop(block)
            nn.register_datanode(datanode)
            re_replicate()
            branches["reregistered"] += 1
        _assert_index_consistent(nn, cluster.pms)

    hosts = sorted({ctx.host for ctx in contexts})

    def poke():
        # a fetching reducer hears of more output, of lost output or of
        # a dead source; the MB values tie often
        for attempt in jt.running_attempts():
            if attempt.task.kind is not TaskKind.REDUCE or attempt._fetch_phase_over:
                continue
            roll = rng.random()
            mb = rng.choice((0.5, 1.0, 1.0, 2.0))
            if roll < 0.4:
                attempt.notify_map_output(rng.choice(hosts), mb)
            elif roll < 0.7 and attempt._pending_fetch:
                attempt.notify_map_lost(rng.choice(sorted(attempt._pending_fetch)), mb)
            elif roll < 0.8:
                sources = sorted(
                    h.src for h in attempt._handles
                    if getattr(h, "src", None) is not None and not h.done
                )
                if sources:
                    attempt.cancel_fetches_from(rng.choice(sources))

    stop_poking = sim.call_every(1.0, poke)
    disturbances = {"left": 60}

    def disturb_then_heal():
        # a bounded storm, then every tracker back, so the jobs finish;
        # the cap only bounds the test's runtime (a storm that keeps
        # re-executing maps runs for hours of simulated time)
        disturbances["left"] -= 1
        if disturbances["left"] > 0:
            disturb()
        elif disturbances["left"] == 0:
            stop_poking()
            for ctx in contexts:
                jt.handle_node_repair(ctx)

    sim.call_every(7.0, disturb_then_heal)
    specs = [
        make_job(
            rng.choice(("Wcount", "Sort", "PiEst")),
            input_gb=rng.choice((0.25, 0.5)),
            num_maps=rng.randint(4, 24),
            num_reducers=rng.randint(1, 6),
            name=f"j{i}",
        )
        for i in range(rng.randint(1, 3))
    ]
    jobs = mr.run_jobs(specs, timeout_s=1e5)
    assert all(job.done for job in jobs)
    assert not jt._locality  # every index left with its job


def test_dispatch_matches_min_oracle(monkeypatch):
    """Every tracker choice, locality answer and shuffle pop equals its
    scan oracle's (``min()``, the pending-tasks walk and ``max()``)."""
    branches = {
        "cursor": 0, "min": 0, "released": 0, "relocated": 0,
        "relocated_datanode": 0, "re_replicated": 0, "reregistered": 0,
        "overlapped": 0, "node_local": 0, "host_local": 0, "remote": 0,
        "pops": 0, "map_output": 0, "map_lost": 0, "fetches_cancelled": 0,
    }
    real_next = TaskAttempt._next_fetch

    def next_fetch(self):
        want = oracle.next_fetch(self._pending_fetch)
        host, mb = real_next(self)
        assert host == want and type(host) is str
        branches["pops"] += 1
        return host, mb

    real_output = TaskAttempt.notify_map_output

    def notify_map_output(self, host, mb):
        if self.running and not self._fetch_phase_over:
            branches["map_output"] += 1
        real_output(self, host, mb)

    real_lost = TaskAttempt.notify_map_lost

    def notify_map_lost(self, host, mb):
        if self.running and not self._fetch_phase_over and host in self._pending_fetch:
            branches["map_lost"] += 1
        real_lost(self, host, mb)

    real_cancel = TaskAttempt.cancel_fetches_from

    def cancel_fetches_from(self, host):
        cancelled = real_cancel(self, host)
        branches["fetches_cancelled"] += cancelled
        return cancelled

    monkeypatch.setattr(TaskAttempt, "_next_fetch", next_fetch)
    monkeypatch.setattr(TaskAttempt, "notify_map_output", notify_map_output)
    monkeypatch.setattr(TaskAttempt, "notify_map_lost", notify_map_lost)
    monkeypatch.setattr(TaskAttempt, "cancel_fetches_from", cancel_fetches_from)
    for seed in range(48):
        # one fetch slot per reducer in half the histories, so backlogs
        # queue up behind it and node failures catch them queued
        monkeypatch.setattr(task_module, "MAX_PARALLEL_FETCHES", 1 + 4 * (seed % 2))
        _dispatch_history(seed, branches)
    # every branch, disturbance and shuffle event happened
    assert min(branches.values()) > 0, branches
