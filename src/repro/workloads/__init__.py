"""Workloads: the paper's six MapReduce benchmarks and workload mixes."""

from repro._lazy import lazy_exports

__all__ = [
    "TWITTER",
    "WCOUNT",
    "PIEST",
    "DISTGREP",
    "SORT",
    "KMEANS",
    "ALL_BENCHMARKS",
    "BENCHMARKS_BY_NAME",
    "make_job",
    "WorkloadMix",
    "WMIX_1",
    "WMIX_2",
    "WMIX_3",
    "ALL_MIXES",
    "WorkloadGenerator",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.specs": (
        "TWITTER", "WCOUNT", "PIEST", "DISTGREP", "SORT", "KMEANS",
        "ALL_BENCHMARKS", "BENCHMARKS_BY_NAME", "make_job",
    ),
    "repro.workloads.mixes": ("WorkloadMix", "WMIX_1", "WMIX_2", "WMIX_3", "ALL_MIXES"),
    "repro.workloads.generator": ("WorkloadGenerator",),
})
