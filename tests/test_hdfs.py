"""Tests for the HDFS substrate."""

import pytest

from repro.hdfs.filesystem import HDFS
from repro.hdfs.testdfsio import TestDFSIO

# not a test class despite the name pytest likes
TestDFSIO.__test__ = False


@pytest.fixture
def fs(sim, native_cluster):
    fs = HDFS(sim, native_cluster.fabric, block_size_mb=64.0, replication=2)
    for ctx in native_cluster.native_contexts():
        fs.add_datanode(ctx)
    return fs


# ----------------------------------------------------------------------
# namespace & placement
# ----------------------------------------------------------------------
def test_preload_splits_into_blocks(fs):
    blocks = fs.preload_file("f", 200.0)
    assert [b.size_mb for b in blocks] == [64.0, 64.0, 64.0, 8.0]
    assert fs.namenode.file_size_mb("f") == 200.0


def test_preload_replicates(fs):
    blocks = fs.preload_file("f", 128.0)
    for block in blocks:
        assert len(fs.namenode.replica_holders(block)) == 2


def test_replicas_on_distinct_datanodes(fs):
    blocks = fs.preload_file("f", 640.0)
    for block in blocks:
        holders = fs.namenode.replica_holders(block)
        assert len({d.name for d in holders}) == len(holders)


def test_placement_balances_usage(fs):
    fs.preload_file("f", 64.0 * 40)
    usages = [d.used_mb for d in fs.namenode.datanodes.values()]
    assert max(usages) - min(usages) <= 2 * 64.0


def test_duplicate_file_rejected(fs):
    fs.preload_file("f", 64.0)
    with pytest.raises(ValueError):
        fs.preload_file("f", 64.0)


def test_delete_file_frees_space(fs):
    fs.preload_file("f", 128.0)
    assert fs.namenode.total_stored_mb() == 256.0
    fs.namenode.delete_file("f")
    assert fs.namenode.total_stored_mb() == 0.0
    with pytest.raises(KeyError):
        fs.namenode.blocks_of("f")


def test_too_few_datanodes_for_replication(sim, native_cluster):
    fs = HDFS(sim, native_cluster.fabric, replication=10)
    fs.add_datanode(native_cluster.native_contexts()[0])
    with pytest.raises(RuntimeError):
        fs.preload_file("f", 64.0)


# ----------------------------------------------------------------------
# reads
# ----------------------------------------------------------------------
def test_read_prefers_local_replica(fs):
    blocks = fs.preload_file("f", 64.0)
    holders = fs.namenode.replica_holders(blocks[0])
    reader = holders[0].context
    assert fs.pick_replica(blocks[0], reader) is holders[0]


def test_local_read_needs_no_network(sim, fs, native_cluster):
    blocks = fs.preload_file("f", 64.0)
    reader = fs.namenode.replica_holders(blocks[0])[0].context
    done = []
    fs.read_block(blocks[0], reader, lambda: done.append(sim.now))
    sim.run()
    assert done and native_cluster.fabric.cross_host_mb == 0.0


def test_remote_read_crosses_network(sim, fs, native_cluster):
    blocks = fs.preload_file("f", 64.0)
    holders = {d.context for d in fs.namenode.replica_holders(blocks[0])}
    reader = next(c for c in native_cluster.native_contexts() if c not in holders)
    done = []
    fs.read_block(blocks[0], reader, lambda: done.append(sim.now))
    sim.run()
    assert done and native_cluster.fabric.cross_host_mb == pytest.approx(64.0)


def test_read_missing_replica_fails(fs, native_cluster):
    blocks = fs.namenode.allocate_file("empty", 64.0, 64.0)
    with pytest.raises(RuntimeError):
        fs.pick_replica(blocks[0], native_cluster.native_contexts()[0])


# ----------------------------------------------------------------------
# writes
# ----------------------------------------------------------------------
def test_create_file_places_replicas(sim, fs, native_cluster):
    writer = native_cluster.native_contexts()[0]
    done = []
    fs.create_file("out", 128.0, writer, lambda: done.append(sim.now))
    sim.run()
    assert done
    for block in fs.namenode.blocks_of("out"):
        assert len(fs.namenode.replica_holders(block)) == 2


def test_create_file_prefers_local_first_replica(sim, fs, native_cluster):
    writer = native_cluster.native_contexts()[0]
    done = []
    fs.create_file("out", 64.0, writer, lambda: done.append(True))
    sim.run()
    block = fs.namenode.blocks_of("out")[0]
    holders = fs.namenode.replica_holders(block)
    assert any(d.context.pm is writer.pm for d in holders)


def test_pending_reservation_released_after_write(sim, fs, native_cluster):
    writer = native_cluster.native_contexts()[0]
    fs.create_file("out", 128.0, writer, lambda: None)
    assert any(d.pending_mb > 0 for d in fs.namenode.datanodes.values())
    sim.run()
    assert all(d.pending_mb == 0 for d in fs.namenode.datanodes.values())


def test_write_timing_includes_disk(sim, fs, native_cluster):
    writer = native_cluster.native_contexts()[0]
    done = []
    fs.create_file("out", 64.0, writer, lambda: done.append(sim.now))
    sim.run()
    assert done[0] >= 64.0 / 75.0  # at least one disk pass


# ----------------------------------------------------------------------
# re-replication
# ----------------------------------------------------------------------
def test_re_replication_restores_copies(sim, fs):
    fs.preload_file("f", 128.0)
    victim = next(iter(fs.namenode.datanodes.values()))
    lost = fs.namenode.decommission_datanode(victim.name)
    assert lost
    done = []
    count = fs.re_replicate(lambda: done.append(True))
    assert count == len(lost)
    sim.run()
    assert done
    assert not fs.namenode.under_replicated(2)


def test_overlapping_re_replications_copy_each_block_once(sim, fs):
    """A node failure and a repair within one copy time each
    re-replicate (``MapReduceCluster.fail_node``, then ``repair_node``).
    The repair counts the failure's copy in flight and waits for it to
    land, so it completes second.  Copying the block again to the same
    target would raise once the first copy had stored it, or, started
    at once, count 128 MB there for one 64 MB block."""
    (block,) = fs.preload_file("f", 64.0)
    victim = fs.namenode.replica_holders(block)[0]
    fs.namenode.decommission_datanode(victim.name)
    done = []
    fs.re_replicate(lambda: done.append("fail"))
    sim.run(until=1.0)
    fs.re_replicate(lambda: done.append("repair"))
    sim.run()
    assert done == ["fail", "repair"]
    assert len(fs.namenode.replica_holders(block)) == 2
    for datanode in fs.namenode.datanodes.values():
        assert datanode.used_mb == sum(b.size_mb for b in datanode.blocks.values())


def test_copy_to_a_target_that_died_does_not_count(sim, fs):
    """A copy whose target dies in flight yields no replica, so a call
    meanwhile copies the block again, to a live DataNode; the dead
    copy's entry clears when it lands."""
    (block,) = fs.preload_file("f", 64.0)
    fs.namenode.decommission_datanode(fs.namenode.replica_holders(block)[0].name)
    fs.re_replicate(lambda: None)
    sim.run(until=1.0)
    (target,) = fs._copying[block.block_id]
    fs.namenode.decommission_datanode(target.name)
    assert fs.re_replicate(lambda: None) == 1
    sim.run()
    holders = fs.namenode.replica_holders(block)
    assert len(holders) == 2 and target not in holders
    assert not fs._copying


def test_copy_reserves_its_bytes_beside_a_pipeline_write(sim, fs):
    """A copy reserves its block on the target, as a pipeline write
    does, so its landing releases only its own bytes: a pipeline write
    still in flight on the same DataNode keeps its reservation until it
    lands."""
    (block,) = fs.preload_file("f", 64.0)
    fs.namenode.decommission_datanode(fs.namenode.replica_holders(block)[0].name)
    seen = []
    fs.re_replicate(lambda: seen.append(("copy", target.pending_mb)))
    (target,) = fs._copying[block.block_id]
    assert target.pending_mb == 64.0
    # the copy is writing on the target by now; a writer there starts a
    # one-replica pipeline write, which lands after the copy
    sim.run(until=1.5)
    fs.create_file(
        "out", 64.0, target.context,
        lambda: seen.append(("write", target.pending_mb)), replication=1,
    )
    assert target.pending_mb == 128.0
    sim.run()
    assert seen == [("copy", 64.0), ("write", 0.0)]
    assert target.used_mb == 128.0


# ----------------------------------------------------------------------
# TestDFSIO
# ----------------------------------------------------------------------
def test_dfsio_write_and_read(sim, fs, native_cluster):
    dfsio = TestDFSIO(sim, fs, native_cluster.native_contexts())
    out = {}
    dfsio.run_write(128.0, lambda r: out.setdefault("w", r))
    sim.run()
    dfsio.run_read(128.0, lambda r: out.setdefault("r", r))
    sim.run()
    assert out["w"].n_files == 4
    assert out["w"].throughput_mbps > 0
    assert out["r"].avg_io_rate_mbps > out["w"].avg_io_rate_mbps  # reads skip replication


def test_dfsio_virtual_slower_than_native(sim):
    from repro.cluster.cluster import Cluster

    def run(virtual):
        from repro.sim.engine import Simulator

        local = Simulator(seed=3)
        if virtual:
            cluster = Cluster.virtual(local, 4, 2)
            clients = list(cluster.vms)
        else:
            cluster = Cluster.native(local, 4)
            clients = cluster.native_contexts()
        fs = HDFS(local, cluster.fabric)
        for ctx in clients:
            fs.add_datanode(ctx)
        out = {}
        TestDFSIO(local, fs, clients).run_write(256.0, lambda r: out.setdefault("w", r))
        local.run()
        return out["w"].throughput_mbps

    assert run(True) < run(False)
