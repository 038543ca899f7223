"""Sweep definitions: the (figure × scale × seed × params) grid.

A :class:`SweepSpec` names which experiment cells to run and at which
scales, seeds and extra parameters; :meth:`SweepSpec.cells` expands it
into concrete :class:`CellSpec` objects in a deterministic order, after
checking every parameter name against each figure's ``run``.  A
cell's :meth:`~CellSpec.config` is its *normalized* configuration --
plain JSON types, sorted parameter keys -- which the cache layer hashes
into the cell's content address.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.experiments.common import resolve_scale
from repro.sweep import cells as cell_registry


def _normalize_value(value):
    """Restrict parameter values to JSON scalar/list types."""
    if isinstance(value, tuple):
        value = list(value)
    if isinstance(value, list):
        return [_normalize_value(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    raise TypeError(
        f"sweep parameter values must be JSON scalars or lists, got "
        f"{type(value).__name__}"
    )


#: the cell arguments every figure takes positionally, one sweep axis each
_AXES = ("scale", "seed")


def _check_params(figure: str, names) -> None:
    """Raise ``ValueError`` naming the first of ``names`` that ``figure``'s
    ``run`` does not take as a keyword parameter.

    ``scale`` and ``seed`` are the sweep's axes: the runner passes them
    positionally, so neither is a parameter of any figure.
    """
    takes = set(inspect.signature(cell_registry.load(figure)).parameters)
    takes.difference_update(_AXES)
    for name in names:
        if name in _AXES:
            raise ValueError(
                f"{name!r} is a sweep axis, not a parameter of {figure}; "
                f"sweep it with {name}s"
            )
        if name not in takes:
            raise ValueError(
                f"{figure} takes no parameter {name!r}; "
                f"its parameters are {sorted(takes)}"
            )


@dataclass(frozen=True)
class CellSpec:
    """One point of the grid: a figure at a scale, seed and params."""

    figure: str
    scale: str
    seed: int
    params: Tuple[Tuple[str, object], ...] = ()
    blame: bool = False

    def config(self) -> dict:
        """Normalized configuration (the content-address payload).

        ``blame`` appears only when set, so the content addresses of
        every pre-existing (non-blame) cell configuration -- and hence
        their cache entries -- are unchanged.
        """
        out = {
            "figure": self.figure,
            "scale": self.scale,
            "seed": self.seed,
            "params": {k: v for k, v in sorted(self.params)},
        }
        if self.blame:
            out["blame"] = True
        return out

    def label(self) -> str:
        text = f"{self.figure}/{self.scale}/seed{self.seed}"
        if self.params:
            body = ",".join(f"{k}={v}" for k, v in sorted(self.params))
            text += f"[{body}]"
        return text


@dataclass
class SweepSpec:
    """A grid of sweep cells.

    ``params`` maps a parameter name to the *list of values* it sweeps
    over; the grid is the cartesian product over figures, scales, seeds
    and every parameter's values.  A scalar value is a one-point axis.
    """

    figures: Sequence[str]
    scales: Sequence[str] = ("small",)
    seeds: Sequence[int] = (7,)
    params: Mapping[str, Sequence[object]] = field(default_factory=dict)
    #: run every cell traced and attach its critical-path blame summary
    blame: bool = False

    def __post_init__(self) -> None:
        if not self.figures:
            raise ValueError("sweep needs at least one figure")
        if not self.seeds:
            raise ValueError("sweep needs at least one seed")
        # resolve names eagerly so typos fail before any cell runs
        self.figures = [cell_registry.resolve(f) for f in self.figures]
        self.scales = [resolve_scale(s).name for s in self.scales]
        self.seeds = [int(s) for s in self.seeds]
        normalized: Dict[str, List[object]] = {}
        for key, values in self.params.items():
            if not isinstance(values, (list, tuple)):
                values = [values]
            if not values:
                raise ValueError(f"parameter {key!r} sweeps over no values")
            normalized[key] = [_normalize_value(v) for v in values]
        self.params = normalized
        for figure in self.figures:
            _check_params(figure, self.params)

    def cells(self) -> List[CellSpec]:
        """Expand the grid, deterministically ordered.

        Seeds vary fastest so that one figure/scale/params group's
        replicas are adjacent -- the order aggregation reports them in.
        """
        keys = sorted(self.params)
        axes = [self.params[k] for k in keys]
        out: List[CellSpec] = []
        for figure in self.figures:
            for scale in self.scales:
                for combo in itertools.product(*axes):
                    params = tuple(zip(keys, combo))
                    for seed in self.seeds:
                        out.append(
                            CellSpec(figure, scale, seed, params, self.blame)
                        )
        return out

    def describe(self) -> dict:
        """JSON-able summary embedded in the sweep report."""
        out = {
            "figures": list(self.figures),
            "scales": list(self.scales),
            "seeds": list(self.seeds),
            "params": {k: list(v) for k, v in sorted(self.params.items())},
        }
        if self.blame:
            out["blame"] = True
        return out
