"""Registry of sweep cells.

Every experiment module exposes a pure ``run(scale, seed, **params) ->
dict`` function; this registry maps stable cell names to those modules.
Cells are resolved lazily by module path, so importing this registry
(or :mod:`repro.sweep`, whose exports load on first read) imports no
experiment, runner or process pool, and worker processes only import
the figures they execute.

A cell function must be deterministic in ``(scale, seed, params)`` and
return a JSON-able dict -- the runner content-addresses its config and
caches its canonicalized result.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List

#: cell name -> module exposing ``run(scale, seed, **params)``
_CELL_MODULES: Dict[str, str] = {
    "fig01": "repro.experiments.fig01_virt_overheads",
    "fig02": "repro.experiments.fig02_deployment",
    "fig05": "repro.experiments.fig05_profiling_curves",
    "fig06": "repro.experiments.fig06_models",
    "fig08": "repro.experiments.fig08_hybridmr_benefits",
    "fig09": "repro.experiments.fig09_cross_platform",
    "fig10": "repro.experiments.fig10_migration",
    "fig11": "repro.experiments.fig11_tradeoff",
    "headline": "repro.experiments.headline",
    "chaos": "repro.experiments.fig08_faults",
    "fabric": "repro.experiments.fabric_micro",
    "live": "repro.experiments.live",
    "zoo": "repro.experiments.zoo",
    "scale-smoke": "repro.experiments.scale_smoke",
}

#: convenience aliases (sub-figure spellings, bare numbers)
_ALIASES: Dict[str, str] = {
    "fig1": "fig01", "fig2": "fig02", "fig5": "fig05", "fig6": "fig06",
    "fig8": "fig08", "fig9": "fig09",
    "fig08-faults": "chaos", "fig08_faults": "chaos", "faults": "chaos",
    "fabric-micro": "fabric", "fabric_micro": "fabric", "net": "fabric",
    "live-driver": "live", "streaming": "live",
    "scheduler-zoo": "zoo", "schedulers": "zoo",
    "scale_smoke": "scale-smoke", "scale": "scale-smoke",
}


def cell_names() -> List[str]:
    return sorted(_CELL_MODULES)


def resolve(name: str) -> str:
    """Canonical cell name for ``name`` (case-insensitive, aliases ok)."""
    folded = str(name).lower()
    folded = _ALIASES.get(folded, folded)
    if folded not in _CELL_MODULES:
        raise KeyError(
            f"unknown sweep figure {name!r}; choose from {cell_names()}"
        )
    return folded


def load(name: str) -> Callable:
    """Import and return the cell's ``run`` function."""
    module = importlib.import_module(_CELL_MODULES[resolve(name)])
    return module.run
