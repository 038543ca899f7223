"""repro.chaos: deterministic fault injection and resilience reporting.

Three layers:

- :mod:`repro.chaos.faults` -- declarative fault timelines
  (:class:`FaultSpec`, :class:`FaultSchedule`) and the seeded Poisson
  generator (:func:`poisson_schedule`, :func:`parse_faults`);
- :mod:`repro.chaos.injector` -- :class:`ChaosInjector`, which applies
  a schedule to a running cluster through the simulation's public
  control surfaces, with blast-radius guards that keep runs completable;
- :mod:`repro.chaos.report` -- :class:`ResilienceReport`, the JSON-able
  summary (availability, recovery times, goodput vs the fault-free
  baseline) assembled by :func:`build_report`.

See ``docs/chaos.md`` for the fault model and command-line usage.
"""

from repro._lazy import lazy_exports

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultSchedule",
    "poisson_schedule",
    "parse_faults",
    "ChaosInjector",
    "FaultRecord",
    "ResilienceReport",
    "build_report",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.chaos.faults": (
        "FAULT_KINDS", "FaultSpec", "FaultSchedule", "poisson_schedule",
        "parse_faults",
    ),
    "repro.chaos.injector": ("ChaosInjector", "FaultRecord"),
    "repro.chaos.report": ("ResilienceReport", "build_report"),
})
