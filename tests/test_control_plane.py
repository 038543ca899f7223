"""The control-plane indexes against the scans they replaced.

``JobTracker._pick_tracker`` (name-order cursor plus a loaded-fleet
``min()``) and ``NameNode.choose_targets`` (committed-bytes buckets) must
make exactly the choices of the scan oracles in
``tests/control_plane_oracle.py``: the same tracker on the same round
state, the same targets, the same error text and the same ``rng`` state.
"""

import random

from repro.cluster.cluster import Cluster
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.mapreduce.cluster import MapReduceCluster
from repro.sim.engine import Simulator
from repro.workloads.specs import make_job
from tests import control_plane_oracle as oracle

# ----------------------------------------------------------------------
# NameNode: committed-bytes index vs the scan
# ----------------------------------------------------------------------
#: sizes whose sums and differences leave float residues (0.1 + 0.2 ...)
_SIZES = (0.1, 0.2, 0.3, 0.7, 1.0, 64.0 / 3.0, 5e-10)


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
        self.pms = [object() for _ in range(n_pms)]
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

    def re_replicate(self, file_index, block_index):
        files = [blocks for blocks in self.nn.files.values() if blocks]
        if not files:
            return None
        blocks = files[file_index % len(files)]
        block = blocks[block_index % len(blocks)]
        targets, seen = self.place(block, 1)
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


def _assert_index_consistent(nn):
    """Every registered DataNode sits in the bucket of its committed
    bytes."""
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
            at = (ops.randrange(1000), ops.randrange(1000))
            seen = [w.re_replicate(*at) for w in worlds]
            assert seen[0] == seen[1], (seed, step, op)
        assert a.state() == b.state(), (seed, step, op)
        for w in worlds:
            _assert_index_consistent(w.nn)
    return next_file


def test_choose_targets_matches_scan_oracle():
    files = sum(_namenode_history(seed) for seed in range(200))
    assert files > 1000  # the histories really placed data


def test_choose_targets_float_residue_ties():
    """Levels within 1e-9 MB of the least share one tie pool."""
    ctx = _Context("c", object(), None)
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
# JobTracker: dispatch cursor vs the fleet min()
# ----------------------------------------------------------------------
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


def _dispatch_history(seed, branches):
    rng = random.Random(seed)
    sim = Simulator(seed=seed)
    cluster, contexts, vms = _mixed_fleet(sim, rng)
    mr = MapReduceCluster(
        sim, cluster.fabric, contexts,
        map_slots=rng.randint(1, 2), reduce_slots=rng.randint(1, 2),
    )
    jt = mr.jt
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

    real_launch = jt._launch

    def launch(task, tracker, speculative=False):
        attempt = real_launch(task, tracker, speculative)
        running = jt.running_attempts()
        if in_round["state"] is not None and running and rng.random() < 0.2:
            # a release landing mid-round: the next pick must see it
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
    jt._launch = launch
    jt._dispatch = dispatch

    def disturb():
        # between rounds: relocate an idle VM, or fail / repair a node
        roll = rng.random()
        idle = [
            vm for vm in vms
            if all(
                e.done
                for entries in (vm._cpu_entries, vm._disk_entries, vm._memio_entries)
                for e in entries
            )
        ]
        if roll < 0.4 and idle and len(cluster.pms) > 1:
            vm = rng.choice(idle)
            vm.relocate(rng.choice([pm for pm in cluster.pms if pm is not vm.pm]))
            branches["relocated"] += 1
        elif roll < 0.55:
            jt.handle_node_failure(rng.choice(contexts))
        elif roll < 0.8:
            jt.handle_node_repair(rng.choice(contexts))

    sim.call_every(7.0, disturb)
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


def test_dispatch_matches_min_oracle():
    branches = {"cursor": 0, "min": 0, "released": 0, "relocated": 0}
    for seed in range(24):
        _dispatch_history(seed, branches)
    # both branches, mid-round releases and relocations all happened
    assert min(branches.values()) > 0, branches
