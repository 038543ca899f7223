"""String-keyed policy registry and factory.

Any scheduler in the zoo is constructible from a *policy spec*: a bare
name (``"drf"``) or ``name:key=value,key=value`` with JSON-typed values
(``"delay:skip_budget=8"``, ``"capacity:prod=0.6,adhoc=0.4"``).  This
is the single plug-in point for policies -- experiments, the sweep grid
(``--param policy=...``), the ``repro zoo`` CLI and future variants all
go through :func:`create_policy`, so a policy registered here is
immediately sweepable and raceable.

Registration is idempotent by name; re-registering a name overwrites it
(last writer wins), which lets tests install throwaway policies.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Tuple

from repro.mapreduce.schedulers import SlotScheduler

#: name -> factory(**kwargs) -> SlotScheduler
_POLICIES: Dict[str, Callable[..., SlotScheduler]] = {}


def register_policy(
    name: str, factory: Callable[..., SlotScheduler]
) -> Callable[..., SlotScheduler]:
    """Register ``factory`` under ``name``; returns the factory so it
    doubles as a decorator helper."""
    if not name or any(c in name for c in ":,= "):
        raise ValueError(f"bad policy name {name!r}")
    _POLICIES[name] = factory
    return factory


def policy_names() -> List[str]:
    """Registered policy names, sorted (the zoo's roster)."""
    _ensure_builtin()
    return sorted(_POLICIES)


def parse_policy_spec(spec: str) -> Tuple[str, Dict[str, object]]:
    """``"name"`` or ``"name:k=v,..."`` -> (name, kwargs).

    Values are parsed as JSON where possible (numbers, booleans, null)
    and fall back to strings, mirroring ``repro sweep --param``.
    """
    if not isinstance(spec, str) or not spec:
        raise ValueError(f"policy spec must be a non-empty string: {spec!r}")
    name, sep, body = spec.partition(":")
    kwargs: Dict[str, object] = {}
    if sep and body:
        for entry in body.split(","):
            key, eq, value = entry.partition("=")
            if not eq or not key:
                raise ValueError(
                    f"bad policy spec {spec!r}: expected name:k=v,k=v"
                )
            try:
                kwargs[key] = json.loads(value)
            except ValueError:
                kwargs[key] = value
    return name, kwargs


def create_policy(spec) -> SlotScheduler:
    """Build a scheduler from a policy spec string (or pass through an
    already-constructed :class:`SlotScheduler`)."""
    _ensure_builtin()
    if isinstance(spec, SlotScheduler):
        return spec
    name, kwargs = parse_policy_spec(spec)
    factory = _POLICIES.get(name)
    if factory is None:
        raise KeyError(
            f"unknown policy {name!r}; choose from {policy_names()}"
        )
    return factory(**kwargs)


def _ensure_builtin() -> None:
    """Import the built-in policies exactly once (registration side
    effect); lazy so ``import repro.zoo.registry`` stays cheap."""
    if "fifo" not in _POLICIES:
        import repro.zoo.policies  # noqa: F401  (registers on import)
