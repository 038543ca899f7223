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

from repro.core.profiling import (
    ProfileRecord,
    ProfileDatabase,
    JCTEstimate,
    JobProfiler,
)
from repro.core.placement import PhaseOneScheduler, Placement
from repro.core.drm import DynamicResourceManager, LocalResourceManager, TaskUsageSample
from repro.core.ips import InterferencePreventionSystem, Arbiter
from repro.core.scheduler import HybridMRScheduler, HybridMRConfig

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
