"""Package exports that load on first read (PEP 562).

A package ``__init__`` names its exports in ``__all__`` and, through
:func:`lazy_exports`, the submodule that defines each one.  The
submodule is imported the first time the name is read from the package,
so importing a package costs only the package itself, and a run loads
only the layers it uses::

    __all__ = ["Event", "Simulator"]

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.sim.engine": ("Event", "Simulator"),
    })

Modules inside ``repro`` import what they use from the defining
submodule (``from repro.sim.engine import Simulator``); the package
names are for callers.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each defining submodule to the names it exports.  A
    name, once read, is stored on the package, so later reads are plain
    attribute lookups.  Any other missing name raises ``AttributeError``,
    which lets ``from package import submodule`` import the submodule.
    """
    origin: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
