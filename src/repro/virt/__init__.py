"""Virtualization substrate: Xen-style VMs, overheads, live migration.

The paper virtualizes its 24 servers with Xen 3.4.2 (2 VMs per PM, each
1 vCPU / 1 GB).  This package models the pieces of that stack the
evaluation depends on:

- :mod:`repro.virt.overheads` -- the empirical overhead relationships
  from Section II (CPU ~5%, I/O ~15% and widening with VM density and
  data size).
- :mod:`repro.virt.vm` -- the guest VM execution context plus the Dom-0
  quasi-native context of Figure 2(c).
- :mod:`repro.virt.migration` -- pre-copy live migration with workload-
  dependent migration time and downtime (Figures 10(b), 10(c)).

The Phase II actuators are the VM's own knobs: ``set_cpu_fraction``
(a Xen credit cap), ``set_io_limit`` and ``set_io_weight`` (the cgroups
blkio throttle and weight), ``balloon_to``, ``pause`` and ``resume``.
The DRM and IPS call them directly and log each decision on
``sim.obs``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "OverheadModel",
    "DEFAULT_OVERHEADS",
    "VirtualMachine",
    "Dom0Context",
    "LiveMigration",
    "MigrationRecord",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.virt.overheads": ("OverheadModel", "DEFAULT_OVERHEADS"),
    "repro.virt.vm": ("VirtualMachine", "Dom0Context"),
    "repro.virt.migration": ("LiveMigration", "MigrationRecord"),
})
