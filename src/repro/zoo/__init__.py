"""repro.zoo: the scheduler zoo.

Policies beyond FIFO/Fair/Capacity for the JobTracker's one slot seam,
:class:`~repro.mapreduce.schedulers.SlotScheduler` (delay scheduling,
DRF, SRTF, the job-driven map/reduce algorithms of arXiv 1808.08040),
a string-keyed registry that builds any scheduler from a spec
(:mod:`~repro.zoo.registry`), and a head-to-head study runner
(:mod:`~repro.zoo.study`) that races every registered policy over fixed
workload cells and explains the wins with critical-path blame.
"""

from repro._lazy import lazy_exports

__all__ = [
    "create_policy",
    "parse_policy_spec",
    "policy_names",
    "register_policy",
    "STUDY_SCHEMA",
    "WORKLOADS",
    "format_study",
    "run_study",
    "study_canonical_json",
    "workload_names",
    "write_study_json",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.zoo.registry": (
        "create_policy", "parse_policy_spec", "policy_names", "register_policy",
    ),
    "repro.zoo.study": (
        "STUDY_SCHEMA", "WORKLOADS", "format_study", "run_study",
        "study_canonical_json", "workload_names", "write_study_json",
    ),
})
