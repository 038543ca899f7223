"""Declarative fault timelines.

A :class:`FaultSpec` says *what* goes wrong, *when*, for *how long* and
(optionally) *where*; a :class:`FaultSchedule` is an ordered collection
of them plus the horizon it covers.  Schedules are plain data -- JSON
round-trippable, hashable into sweep cache keys -- and the stochastic
generator :func:`poisson_schedule` is a pure function of its arguments,
so the same ``(seed, rates, mttr)`` always yields byte-identical
timelines no matter what else the simulation does.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

#: every fault kind the injector knows how to apply
FAULT_KINDS = (
    "node_crash",     # kill a worker node, repair after ``duration``
    "rack_crash",     # kill every worker on one physical machine
    "disk_degrade",   # failing disk: throughput scaled by 1 - severity
    "nic_degrade",    # flapping link: NIC capacity scaled by 1 - severity
    "cpu_steal",      # noisy neighbour stealing ``severity`` of the CPU
    "straggler",      # slow node: CPU *and* disk scaled by 1 - severity
    "partition",      # network partition isolating one machine's hosts
)

#: short aliases accepted by ``poisson:node=0.01`` style ``faults`` strings
KIND_ALIASES = {
    "node": "node_crash",
    "rack": "rack_crash",
    "disk": "disk_degrade",
    "nic": "nic_degrade",
    "cpu": "cpu_steal",
    "straggler": "straggler",
    "partition": "partition",
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault: what, when, for how long, and (optionally) where.

    ``target`` names an execution context (or, for rack faults, a
    physical machine); ``None`` lets the injector pick deterministically
    from its seeded RNG stream.  ``severity`` in (0, 1) is the capacity
    fraction taken away by degradation faults; crashes and partitions
    ignore it.  ``duration <= 0`` means the fault is never healed.
    """

    kind: str
    at: float
    duration: float = 0.0
    target: Optional[str] = None
    severity: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.at < 0:
            raise ValueError("fault time must be non-negative")
        if not 0.0 < self.severity < 1.0:
            raise ValueError("severity must be in (0, 1)")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "at": self.at,
            "duration": self.duration,
            "target": self.target,
            "severity": self.severity,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        return cls(
            kind=data["kind"],
            at=float(data["at"]),
            duration=float(data.get("duration", 0.0)),
            target=data.get("target"),
            severity=float(data.get("severity", 0.5)),
        )


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered fault timeline over ``[0, horizon]``."""

    faults: Tuple[FaultSpec, ...]
    horizon: float
    #: provenance: how the schedule was generated (free-form, JSON-able)
    source: str = "explicit"

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.faults, key=lambda f: (f.at, f.kind, f.target or ""))
        )
        object.__setattr__(self, "faults", ordered)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def count(self, kind: str) -> int:
        return sum(1 for f in self.faults if f.kind == kind)

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "source": self.source,
            "faults": [f.to_dict() for f in self.faults],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        return cls(
            faults=tuple(FaultSpec.from_dict(f) for f in data["faults"]),
            horizon=float(data["horizon"]),
            source=data.get("source", "explicit"),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        return cls.from_dict(json.loads(text))


def poisson_schedule(
    seed: int,
    horizon: float,
    rates: Dict[str, float],
    mttr: Union[float, Dict[str, float]] = 45.0,
    severity: float = 0.5,
) -> FaultSchedule:
    """Draw a fault timeline from independent Poisson processes.

    ``rates`` maps fault kinds (full names or aliases) to arrival rates
    in faults/second over the whole cluster; ``mttr`` is the mean
    time-to-repair in seconds (scalar, or per-kind dict).  Repair times
    are exponential around the MTTR, clamped to ``[1, 4 * mttr]`` so a
    single unlucky draw cannot leave a node dead for the entire run.

    Each kind draws from its own labelled RNG stream, so adding a kind
    to ``rates`` never perturbs the timeline of the others -- the same
    property :meth:`Simulator.fork_rng` gives the simulation proper.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    faults: List[FaultSpec] = []
    for raw_kind in sorted(rates):
        kind = KIND_ALIASES.get(raw_kind, raw_kind)
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {raw_kind!r}")
        rate = rates[raw_kind]
        if rate < 0:
            raise ValueError(f"rate for {raw_kind!r} must be non-negative")
        if rate == 0:
            continue
        kind_mttr = mttr[raw_kind] if isinstance(mttr, dict) else mttr
        if kind_mttr <= 0:
            raise ValueError("mttr must be positive")
        rng = random.Random(f"{seed}:chaos:{kind}")
        t = rng.expovariate(rate)
        while t < horizon:
            duration = min(max(1.0, rng.expovariate(1.0 / kind_mttr)), 4.0 * kind_mttr)
            faults.append(
                FaultSpec(kind=kind, at=t, duration=duration, severity=severity)
            )
            t += rng.expovariate(rate)
    return FaultSchedule(
        faults=tuple(faults),
        horizon=horizon,
        source=f"poisson:seed={seed}",
    )


def parse_faults(
    spec: str,
    seed: int,
    horizon: float,
    mttr: float = 45.0,
    severity: float = 0.5,
) -> FaultSchedule:
    """Parse a ``faults`` string (the ``chaos`` cell parameter) into a schedule.

    Grammar::

        none
        poisson:<kind>=<rate>[,<kind>=<rate>...]

    where ``<kind>`` is a full fault kind or one of the short aliases
    (``node``, ``rack``, ``disk``, ``nic``, ``cpu``, ``straggler``,
    ``partition``) and ``<rate>`` is in faults/second.
    """
    spec = spec.strip()
    if spec in ("", "none"):
        return FaultSchedule(faults=(), horizon=horizon, source="none")
    mode, _, body = spec.partition(":")
    if mode != "poisson" or not body:
        raise ValueError(
            f"cannot parse fault spec {spec!r}; expected 'none' or "
            "'poisson:<kind>=<rate>,...'"
        )
    rates: Dict[str, float] = {}
    for part in body.split(","):
        name, eq, value = part.partition("=")
        if not eq:
            raise ValueError(f"malformed fault rate {part!r} (need kind=rate)")
        rates[name.strip()] = float(value)
    return poisson_schedule(seed, horizon, rates, mttr=mttr, severity=severity)
