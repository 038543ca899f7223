"""The NameNode: namespace, replica map and placement policy."""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left, insort
from typing import Callable, Dict, List, Optional

from repro.hdfs.block import Block
from repro.hdfs.datanode import DataNode


class NameNode:
    """Tracks files -> blocks -> replica locations.

    Placement policy mirrors Hadoop's: first replica on the writer's
    local DataNode when one exists, subsequent replicas on distinct
    nodes, balanced by current usage with random tie-breaking.

    Placement reads an index instead of scanning the DataNodes: each
    registration gets a *rank* (registration order, which is also the
    order of :attr:`datanodes`), and the ranks are kept in buckets keyed
    by exact :attr:`~repro.hdfs.datanode.DataNode.committed_mb`.
    DataNodes report every committed-bytes change, so a bucket's key is
    always its members' current value.

    Write locality reads the writer's machine instead of scanning: each
    :class:`~repro.cluster.machine.PhysicalMachine` lists the DataNodes
    registered on its contexts (``pm.datanodes``), kept here at
    registration and decommission and by
    :meth:`~repro.virt.vm.VirtualMachine.relocate` when a guest moves.
    """

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self.datanodes: Dict[str, DataNode] = {}
        self.files: Dict[str, List[Block]] = {}
        self.replicas: Dict[int, List[str]] = {}
        self._block_ids = itertools.count()
        self.rng = rng or random.Random(0)
        #: rank -> DataNode, None once decommissioned
        self._ranked: List[Optional[DataNode]] = []
        #: committed MB -> ranks of the DataNodes at that level, ascending
        self._levels: Dict[float, List[int]] = {}
        #: the keys of ``_levels``, ascending
        self._level_keys: List[float] = []
        #: called as ``on_replica(block, datanode)`` after each recorded
        #: replica (the JobTracker's locality index follows them)
        self.on_replica: Optional[Callable[[Block, DataNode], None]] = None

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register_datanode(self, datanode: DataNode) -> None:
        if datanode.name in self.datanodes:
            raise ValueError(f"duplicate DataNode {datanode.name!r}")
        self.datanodes[datanode.name] = datanode
        datanode.rank = len(self._ranked)
        datanode.namenode = self
        self._ranked.append(datanode)
        self._file(datanode.rank, datanode.committed_mb)
        pm = datanode.context.pm
        pm.datanodes += (datanode,)

    def decommission_datanode(self, name: str) -> List[Block]:
        """Remove a DataNode; returns blocks now under-replicated."""
        datanode = self.datanodes.pop(name)
        self._unfile(datanode.rank, datanode.committed_mb)
        pm = datanode.context.pm
        pm.datanodes = tuple(d for d in pm.datanodes if d is not datanode)
        self._ranked[datanode.rank] = None
        datanode.rank = datanode.namenode = None
        lost: List[Block] = []
        for block_id, holders in self.replicas.items():
            if name in holders:
                holders.remove(name)
                lost.append(datanode.blocks.get(block_id) or self._find_block(block_id))
        return [b for b in lost if b is not None]

    # ------------------------------------------------------------------
    # the committed-bytes index
    # ------------------------------------------------------------------
    def _file(self, rank: int, level: float) -> None:
        bucket = self._levels.get(level)
        if bucket is None:
            self._levels[level] = [rank]
            insort(self._level_keys, level)
        else:
            insort(bucket, rank)

    def _unfile(self, rank: int, level: float) -> None:
        bucket = self._levels[level]
        del bucket[bisect_left(bucket, rank)]
        if not bucket:
            del self._levels[level]
            keys = self._level_keys
            del keys[bisect_left(keys, level)]

    def committed_changed(self, datanode: DataNode, before: float) -> None:
        """Re-file ``datanode``, whose committed bytes were ``before``."""
        after = datanode.committed_mb
        if after != before:
            self._unfile(datanode.rank, before)
            self._file(datanode.rank, after)

    def _least_committed(self, excluded: Dict[int, DataNode]) -> DataNode:
        """Random pick among the least-committed DataNodes not excluded.

        ``excluded`` maps rank -> DataNode.  The pool is every other
        DataNode whose committed bytes are within 1e-9 MB of the least,
        in rank order, and the draw is ``rng.randrange(len(pool))`` -- the
        same pool, order and draw as a scan of :attr:`datanodes`.
        """
        skip: Dict[float, int] = {}
        for datanode in excluded.values():
            level = datanode.committed_mb
            skip[level] = skip.get(level, 0) + 1
        keys, levels = self._level_keys, self._levels
        first = 0
        while len(levels[keys[first]]) <= skip.get(keys[first], 0):
            first += 1
        limit = keys[first] + 1e-9
        last, size = first, 0
        while last < len(keys) and keys[last] <= limit:
            size += len(levels[keys[last]]) - skip.get(keys[last], 0)
            last += 1
        k = self.rng.randrange(size)
        if last - first == 1:
            ranks = levels[keys[first]]
        else:
            ranks = sorted(r for key in keys[first:last] for r in levels[key])
        # the k-th rank that is not excluded: step past each excluded
        # rank at or before the current answer, in ascending order
        lo, hi = keys[first], keys[last - 1]
        for rank in sorted(r for r, d in excluded.items() if lo <= d.committed_mb <= hi):
            if rank > ranks[k]:
                break
            k += 1
        return self._ranked[ranks[k]]

    def _find_block(self, block_id: int) -> Optional[Block]:
        for blocks in self.files.values():
            for block in blocks:
                if block.block_id == block_id:
                    return block
        return None

    # ------------------------------------------------------------------
    # namespace
    # ------------------------------------------------------------------
    def allocate_file(self, name: str, size_mb: float, block_size_mb: float) -> List[Block]:
        """Create namespace entries for a new file (no data placed yet)."""
        if name in self.files:
            raise ValueError(f"file {name!r} already exists")
        if size_mb <= 0:
            raise ValueError("file size must be positive")
        blocks: List[Block] = []
        remaining = size_mb
        index = 0
        while remaining > 1e-9:
            size = min(block_size_mb, remaining)
            blocks.append(Block(next(self._block_ids), name, index, size))
            remaining -= size
            index += 1
        self.files[name] = blocks
        for block in blocks:
            self.replicas[block.block_id] = []
        return blocks

    def delete_file(self, name: str) -> None:
        for block in self.files.pop(name):
            for holder in self.replicas.pop(block.block_id, []):
                datanode = self.datanodes.get(holder)
                if datanode is not None and datanode.holds(block):
                    datanode.drop(block)

    def blocks_of(self, name: str) -> List[Block]:
        if name not in self.files:
            raise KeyError(f"no such file {name!r}")
        return list(self.files[name])

    def file_size_mb(self, name: str) -> float:
        return sum(b.size_mb for b in self.blocks_of(name))

    # ------------------------------------------------------------------
    # replica management
    # ------------------------------------------------------------------
    def record_replica(self, block: Block, datanode_name: str) -> None:
        holders = self.replicas[block.block_id]
        if datanode_name in holders:
            raise ValueError(
                f"block {block.block_id} already replicated on {datanode_name}"
            )
        holders.append(datanode_name)
        datanode = self.datanodes.get(datanode_name)
        if datanode is not None and self.on_replica is not None:
            self.on_replica(block, datanode)

    def replica_holders(self, block: Block) -> List[DataNode]:
        return [
            self.datanodes[name]
            for name in self.replicas.get(block.block_id, [])
            if name in self.datanodes
        ]

    def choose_targets(
        self,
        block: Block,
        replication: int,
        preferred_pm: Optional[object] = None,
        reserve: bool = False,
    ) -> List[DataNode]:
        """Pick ``replication`` distinct DataNodes for a new block.

        ``preferred_pm`` is the writer's physical machine; a DataNode on
        that machine gets the first replica (Hadoop's write-locality
        rule -- under the split architecture this is the storage VM
        sharing the writer's host).  Balance uses committed (stored +
        in-flight) bytes; ``reserve`` marks the chosen targets' capacity
        as in-flight so concurrent writers spread out instead of
        dog-piling one momentarily idle node.

        The writer-local candidates are ``preferred_pm.datanodes``, and
        every other replica comes from the committed-bytes index (see
        :meth:`_least_committed`), so no choice scans the DataNodes.
        """
        if replication <= 0:
            raise ValueError("replication must be positive")
        excluded: Dict[int, DataNode] = {}
        for name in self.replicas.get(block.block_id, ()):
            holder = self.datanodes.get(name)
            if holder is not None:
                excluded[holder.rank] = holder
        available = len(self.datanodes) - len(excluded)
        if available < replication:
            raise RuntimeError(
                f"not enough DataNodes for replication={replication} "
                f"(have {available})"
            )
        targets: List[DataNode] = []
        if preferred_pm is not None:
            local = [
                d for d in preferred_pm.datanodes
                if d.namenode is self and d.rank not in excluded
            ]
            if local:
                first = min(local, key=lambda d: (d.committed_mb, d.name))
                targets.append(first)
                excluded[first.rank] = first
        while len(targets) < replication:
            pick = self._least_committed(excluded)
            targets.append(pick)
            excluded[pick.rank] = pick
        if reserve:
            for target in targets:
                target.reserve(block.size_mb)
        return targets

    def copy_target(self, block: Block, busy: List[DataNode]) -> DataNode:
        """One DataNode for a re-replicated copy of ``block``.

        The pick is :meth:`choose_targets`' for one replica, except that
        ``busy`` -- the live targets of the block's copies in flight --
        are excluded beside its holders.  Like ``choose_targets(...,
        reserve=True)`` it reserves the block's bytes on the target, which
        the copy's write releases when it lands.
        """
        excluded = {d.rank: d for d in self.replica_holders(block)}
        for datanode in busy:
            excluded[datanode.rank] = datanode
        if len(excluded) >= len(self.datanodes):
            raise RuntimeError(
                f"no DataNode left for a copy of block {block.block_id}"
            )
        target = self._least_committed(excluded)
        target.reserve(block.size_mb)
        return target

    def under_replicated(self, replication: int) -> List[Block]:
        """Blocks currently holding fewer than ``replication`` copies."""
        out: List[Block] = []
        for blocks in self.files.values():
            for block in blocks:
                if len(self.replicas.get(block.block_id, [])) < replication:
                    out.append(block)
        return out

    def total_stored_mb(self) -> float:
        return sum(d.used_mb for d in self.datanodes.values())
