"""HybridMR: the paper's 2-phase hierarchical scheduler.

- Phase I (:mod:`repro.core.profiling`, :mod:`repro.core.placement`):
  profile incoming MapReduce jobs against training runs, estimate their
  JCT on native vs virtual clusters (Algorithm 1) and steer the initial
  placement (Algorithm 2).
- Phase II (:mod:`repro.core.drm`, :mod:`repro.core.ips`): dynamic
  resource management of the virtual cluster -- the DRM (GRM + LRMs)
  orchestrates CPU/memory/IO across collocated tasks, the IPS guards
  interactive SLAs with the Arbiter's throttle/pause/migrate ladder
  (Algorithm 3).
- :mod:`repro.core.scheduler` wires both phases into the
  :class:`~repro.core.scheduler.HybridMRScheduler` facade.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ProfileRecord",
    "ProfileDatabase",
    "JCTEstimate",
    "JobProfiler",
    "PhaseOneScheduler",
    "Placement",
    "DynamicResourceManager",
    "LocalResourceManager",
    "TaskUsageSample",
    "InterferencePreventionSystem",
    "Arbiter",
    "HybridMRScheduler",
    "HybridMRConfig",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.profiling": (
        "ProfileRecord", "ProfileDatabase", "JCTEstimate", "JobProfiler",
    ),
    "repro.core.placement": ("PhaseOneScheduler", "Placement"),
    "repro.core.drm": (
        "DynamicResourceManager", "LocalResourceManager", "TaskUsageSample",
    ),
    "repro.core.ips": ("InterferencePreventionSystem", "Arbiter"),
    "repro.core.scheduler": ("HybridMRScheduler", "HybridMRConfig"),
})
