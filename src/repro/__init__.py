"""HybridMR reproduction: hierarchical MapReduce scheduling for hybrid
data centers (Sharma, Wood, Das -- ICDCS 2013).

The package simulates the paper's entire stack -- physical cluster,
Xen-style virtualization, HDFS, Hadoop MapReduce, interactive services,
power metering -- and implements the HybridMR two-phase scheduler on
top.  Start with :class:`repro.core.HybridMRScheduler` (the paper's
contribution), :class:`repro.cluster.Cluster` (testbed shapes) and
:mod:`repro.experiments` (one module per evaluation figure).
"""

__version__ = "1.0.0"

from repro._lazy import lazy_exports

__all__ = ["Simulator", "Cluster", "__version__"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.engine": ("Simulator",),
    "repro.cluster.cluster": ("Cluster",),
})
