"""Interactive (transactional) application substrate.

The paper co-hosts three interactive benchmarks with MapReduce:
RUBiS (online auction), TPC-W (online bookstore) and Olio (Web 2.0
social events).  We model each as a closed-loop client population
driving a multi-VM service whose response time follows a
processor-sharing queueing model over the CPU and disk capacity the
service's VMs actually obtain -- so collocated batch VMs degrade
latency exactly the way Figures 8(d) and 9(a) show.
"""

from repro._lazy import lazy_exports

__all__ = [
    "InteractiveService",
    "ServiceProfile",
    "RUBIS",
    "TPCW",
    "OLIO",
    "solve_closed_loop_latency",
    "LoadProfile",
    "ConstantLoad",
    "StepLoad",
    "SinusoidLoad",
    "BurstyLoad",
    "SLAMonitor",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.interactive.service": (
        "InteractiveService", "ServiceProfile", "RUBIS", "TPCW", "OLIO",
        "solve_closed_loop_latency",
    ),
    "repro.interactive.loadgen": (
        "LoadProfile", "ConstantLoad", "StepLoad", "SinusoidLoad", "BurstyLoad",
    ),
    "repro.interactive.sla": ("SLAMonitor",),
})
