"""Metrics: utilization sampling, energy accounting, report tables."""

from repro._lazy import lazy_exports

__all__ = [
    "UtilizationCollector",
    "EnergyReport",
    "perf_per_energy",
    "format_table",
    "format_series",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.metrics.collector": ("UtilizationCollector",),
    "repro.metrics.energy": ("EnergyReport", "perf_per_energy"),
    "repro.metrics.report": ("format_table", "format_series"),
})
