"""The HDFS facade: timed, locality-aware reads and pipelined writes."""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional

from repro.cluster.machine import ExecutionContext
from repro.hdfs.block import Block
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.sim.engine import Simulator, _profiled_call
from repro.sim.network import NetworkFabric
from repro.sim.sequence import chain, join


class HDFS:
    """Distributed file system over a set of DataNodes.

    Parameters mirror the paper's deployment: 64 MB blocks and
    replication factor 2.
    """

    def __init__(
        self,
        sim: Simulator,
        fabric: NetworkFabric,
        block_size_mb: float = 64.0,
        replication: int = 2,
    ) -> None:
        if block_size_mb <= 0:
            raise ValueError("block size must be positive")
        if replication <= 0:
            raise ValueError("replication must be positive")
        self.sim = sim
        self.fabric = fabric
        self.block_size_mb = block_size_mb
        self.replication = replication
        self.namenode = NameNode(rng=sim.fork_rng("hdfs"))
        #: block id -> {target: callbacks waiting for that copy to land}
        #: for each re-replication copy in flight
        self._copying: Dict[int, Dict[DataNode, List[Callable[[], None]]]] = {}

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def add_datanode(self, context: ExecutionContext, name: Optional[str] = None) -> DataNode:
        datanode = DataNode(name or f"dn-{context.name}", context)
        self.namenode.register_datanode(datanode)
        return datanode

    def datanode_on_context(self, context: ExecutionContext) -> Optional[DataNode]:
        for datanode in self.namenode.datanodes.values():
            if datanode.context is context:
                return datanode
        return None

    # ------------------------------------------------------------------
    # data placement without timing (input preload, like the paper's
    # pre-ingested 20 GB corpora)
    # ------------------------------------------------------------------
    def preload_file(
        self, name: str, size_mb: float, block_size_mb: Optional[float] = None
    ) -> List[Block]:
        """Create a fully replicated file instantly (setup phase).

        ``block_size_mb`` overrides the filesystem default; the
        JobTracker uses it to control a job's map-task count.
        """
        blocks = self.namenode.allocate_file(
            name, size_mb, block_size_mb or self.block_size_mb
        )
        for block in blocks:
            for target in self.namenode.choose_targets(block, self.replication):
                target.store_instantly(block)
                self.namenode.record_replica(block, target.name)
        return blocks

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def pick_replica(self, block: Block, reader: ExecutionContext) -> DataNode:
        """Locality preference: same context > same host > least loaded."""
        holders = self.namenode.replica_holders(block)
        if not holders:
            raise RuntimeError(f"block {block.block_id} has no live replicas")
        for datanode in holders:
            if datanode.context is reader:
                return datanode
        same_pm = [d for d in holders if d.context.pm is reader.pm]
        if same_pm:
            return min(same_pm, key=lambda d: (d.context.active_disk_entries, d.name))
        return min(holders, key=lambda d: (d.context.active_disk_entries, d.name))

    def read_block(
        self,
        block: Block,
        reader: ExecutionContext,
        on_complete: Callable[[], None],
        efficiency_penalty: float = 0.0,
    ) -> DataNode:
        """Read one block into ``reader``; returns the chosen replica.

        Local reads cost one disk pass; remote reads add a network flow
        (loopback if the replica shares the reader's physical host).
        """
        source = self.pick_replica(block, reader)

        def transfer(done: Callable[[], None]) -> None:
            if source.context is reader:
                done()
                return
            self.fabric.start_flow(
                source.host,
                reader.host,
                block.size_mb,
                on_complete=done,
                efficiency=min(source.context.net_efficiency(), reader.net_efficiency()),
                label=f"hdfs:read:{block.block_id}",
            )

        chain(
            [
                lambda done: source.read_block(
                    block, done, efficiency_penalty=efficiency_penalty
                )
                and None,
                transfer,
            ],
            on_complete,
        )
        return source

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def create_file(
        self,
        name: str,
        size_mb: float,
        writer: ExecutionContext,
        on_complete: Callable[[], None],
        efficiency_penalty: float = 0.0,
        replication: Optional[int] = None,
        cached: bool = False,
    ) -> List[Block]:
        """Write a new file with pipelined replication.

        Each block goes to ``replication`` DataNodes: a disk write at the
        first (preferably writer-local) target, then flow + disk write at
        each subsequent target, in pipeline order, as in HDFS.  Blocks
        are written concurrently (Hadoop writes one block at a time per
        stream, but a job's many tasks write streams concurrently; our
        callers open one file per task, so concurrent blocks of a file
        model a task's back-to-back block writes closely enough while
        keeping the event count linear).
        """
        replication = replication or self.replication
        blocks = self.namenode.allocate_file(name, size_mb, self.block_size_mb)
        if not blocks:
            self.sim.schedule(0.0, on_complete)
            return blocks
        prof = self.sim.prof
        if prof is not None:
            # the last block write ends inside a DataNode closure; bill
            # the writer's continuation to the writer, in a frame of its own
            on_complete = partial(_profiled_call, prof, on_complete)
        for block, arm in zip(blocks, join(len(blocks), on_complete)):
            targets = self.namenode.choose_targets(
                block, replication, preferred_pm=writer.pm, reserve=True
            )
            self._pipeline_write(
                block, writer, targets, arm, efficiency_penalty, cached
            )
        return blocks

    def _pipeline_write(
        self,
        block: Block,
        writer: ExecutionContext,
        targets: List[DataNode],
        on_complete: Callable[[], None],
        efficiency_penalty: float,
        cached: bool = False,
    ) -> None:
        stages = []
        previous_host = writer.host
        for target in targets:
            stages.append(
                self._write_leg(block, previous_host, target, efficiency_penalty, cached)
            )
            previous_host = target.host

        def record() -> None:
            if block.block_id not in self.namenode.replicas:
                # the file was deleted while this block's pipeline was in
                # flight (e.g. a killed speculative reducer's output):
                # drop the orphaned replicas
                for target in targets:
                    if target.holds(block):
                        target.drop(block)
                on_complete()
                return
            for target in targets:
                # a target decommissioned mid-pipeline (node crash while
                # writing) yields no replica; its copy died with the node
                if self.namenode.datanodes.get(target.name) is target:
                    self.namenode.record_replica(block, target.name)
                elif target.holds(block):
                    target.drop(block)
            on_complete()

        chain(stages, record)

    def _write_leg(
        self,
        block: Block,
        src_host: str,
        target: DataNode,
        efficiency_penalty: float,
        cached: bool = False,
    ):
        def leg(done: Callable[[], None]) -> None:
            def write_disk() -> None:
                target.write_block(
                    block, done, efficiency_penalty=efficiency_penalty, cached=cached
                )

            if src_host == target.host:
                write_disk()
            else:
                self.fabric.start_flow(
                    src_host,
                    target.host,
                    block.size_mb,
                    on_complete=write_disk,
                    efficiency=target.context.net_efficiency(),
                    label=f"hdfs:write:{block.block_id}",
                )

        return leg

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def re_replicate(self, on_complete: Callable[[], None]) -> int:
        """Regenerate missing replicas from surviving copies.

        Used after a DataNode loss (e.g. a migration downtime window in
        the paper's discussion): Hadoop's replication monitor copies
        under-replicated blocks to new targets.  A copy that an earlier
        call has in flight to a live DataNode counts toward the goal, its
        target is not picked again, and ``on_complete`` also waits for it
        to land.  Returns the number of replicas this call regenerates.
        """
        namenode = self.namenode
        work = []
        waits: List[List[Callable[[], None]]] = []
        for block in namenode.under_replicated(self.replication):
            holders = namenode.replica_holders(block)
            if not holders:
                continue  # data loss; nothing to copy from
            copies = self._copying.get(block.block_id, {})
            landing = [t for t in copies if namenode.datanodes.get(t.name) is t]
            waits.extend(copies[t] for t in landing)
            for _ in range(self.replication - len(holders) - len(landing)):
                target = namenode.copy_target(block, landing)
                landing.append(target)
                work.append((block, holders[0], target))
        if not work and not waits:
            self.sim.schedule(0.0, on_complete)
            return 0
        arms = join(len(work) + len(waits), on_complete)
        for waiters, arm in zip(waits, arms[len(work):]):
            waiters.append(arm)
        for (block, source, target), arm in zip(work, arms):
            self._replicate_one(block, source, target, arm)
        return len(work)

    def _replicate_one(
        self,
        block: Block,
        source: DataNode,
        target: DataNode,
        on_complete: Callable[[], None],
    ) -> None:
        copies = self._copying.setdefault(block.block_id, {})
        copies[target] = []

        def after_read() -> None:
            def after_flow() -> None:
                def record() -> None:
                    # copy flows are never cancelled, so this runs for
                    # every copy, also one whose target died meanwhile
                    waiters = copies.pop(target)
                    if not copies:
                        del self._copying[block.block_id]
                    # same decommission race as the write pipeline: only
                    # record the replica if the target is still alive
                    if (
                        self.namenode.datanodes.get(target.name) is target
                        and block.block_id in self.namenode.replicas
                        and target.name not in self.namenode.replicas[block.block_id]
                    ):
                        self.namenode.record_replica(block, target.name)
                    on_complete()
                    for waiter in waiters:
                        waiter()

                target.write_block(block, record)

            if source.host == target.host:
                after_flow()
            else:
                self.fabric.start_flow(
                    source.host, target.host, block.size_mb, on_complete=after_flow
                )

        source.read_block(block, after_read)
