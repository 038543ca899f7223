"""Hadoop-0.22-style MapReduce runtime over the simulated cluster.

Implements the pieces of Hadoop the paper's evaluation depends on:
JobTracker/TaskTracker with per-node map and reduce slots, block-
granular map tasks with locality-aware input reads, an event-driven
shuffle, merge/reduce/output phases with replicated HDFS writes,
speculative execution, FIFO and Fair job schedulers, and the
combined-vs-split deployment architectures of Figure 3.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BenchmarkProfile",
    "JobSpec",
    "Job",
    "JobState",
    "Task",
    "TaskAttempt",
    "TaskKind",
    "TaskTracker",
    "CapacityScheduler",
    "FIFOScheduler",
    "FairScheduler",
    "SlotScheduler",
    "JobTracker",
    "MapReduceCluster",
    "IterativeJobRunner",
    "IterativeRunResult",
    "in_memory_engine",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.mapreduce.job": ("BenchmarkProfile", "JobSpec", "Job", "JobState"),
    "repro.mapreduce.task": ("Task", "TaskAttempt", "TaskKind"),
    "repro.mapreduce.tracker": ("TaskTracker",),
    "repro.mapreduce.schedulers": (
        "CapacityScheduler", "FIFOScheduler", "FairScheduler", "SlotScheduler",
    ),
    "repro.mapreduce.jobtracker": ("JobTracker",),
    "repro.mapreduce.cluster": ("MapReduceCluster",),
    "repro.mapreduce.iterative": (
        "IterativeJobRunner", "IterativeRunResult", "in_memory_engine",
    ),
})
