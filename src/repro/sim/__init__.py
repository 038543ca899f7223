"""Deterministic discrete-event simulation core.

This package provides the substrate every other subsystem of the
HybridMR reproduction is built on:

- :mod:`repro.sim.engine` -- the event loop and simulation clock.
- :mod:`repro.sim.pool` -- fluid, max-min fair resource pools used to
  model CPU, disk and NIC sharing among concurrent activities.
- :mod:`repro.sim.network` -- a fabric of coupled pools implementing
  max-min fair allocation for host-to-host flows.
- :mod:`repro.sim.trace` -- lightweight time-series recording used by
  the metrics and experiment layers.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Event",
    "Simulator",
    "ResourcePool",
    "PoolEntry",
    "NetworkFabric",
    "Flow",
    "Trace",
    "TraceSet",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.engine": ("Event", "Simulator"),
    "repro.sim.pool": ("ResourcePool", "PoolEntry"),
    "repro.sim.network": ("NetworkFabric", "Flow"),
    "repro.sim.trace": ("Trace", "TraceSet"),
})
