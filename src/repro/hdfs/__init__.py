"""HDFS substrate: blocks, replication, locality-aware reads/writes.

Models the parts of the Hadoop Distributed File System that the paper's
evaluation exercises: block-granular files (64 MB), a NameNode holding
the namespace and replica map (replication factor 2, matching the
testbed), DataNodes bound to execution contexts, pipelined replicated
writes, locality-preferring reads, and the TestDFSIO benchmark used for
Figure 1(c).
"""

from repro._lazy import lazy_exports

__all__ = [
    "Block",
    "BlockReplica",
    "NameNode",
    "DataNode",
    "HDFS",
    "TestDFSIO",
    "DFSIOResult",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.hdfs.block": ("Block", "BlockReplica"),
    "repro.hdfs.namenode": ("NameNode",),
    "repro.hdfs.datanode": ("DataNode",),
    "repro.hdfs.filesystem": ("HDFS",),
    "repro.hdfs.testdfsio": ("TestDFSIO", "DFSIOResult"),
})
