"""One-step reversible cellular automata on rings and their two neighbourhoods.

An automaton is built from layers of identical-dimension gates placed at
cyclic positions; its step channel is the ordered composition of the layers.
For each cell the causal neighbourhood comes from the probe process of the
iterated step, the signalling set from pairwise signalling tests. The
signalling set is always contained in the causal neighbourhood; a strict gap
is the classical phenomenon that disappears when the same layout is quantized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .causal import embed_on, iterate, neighbourhood
from .classical import ClassicalChannel
from .errors import BudgetError, ConsistencyError, SpecError
from .quantum import DEFAULT_TOL, UnitaryChannel
from .systems import CompositeSystem, composite

__all__ = [
    "CellNeighbourhood",
    "ConeRow",
    "RingAutomaton",
    "build_ring",
    "cone_growth",
    "neighbourhood_map",
    "neighbourhood_maps",
]

DEFAULT_MAX_DIM = {"classical": 4096, "quantum": 64}


def _cell_name(i: int) -> str:
    return f"c{i}"


@dataclass(frozen=True, eq=False)
class RingAutomaton:
    """A reversible one-step update on a ring of identical cells."""

    cells: int
    cell_dim: int
    step: ClassicalChannel | UnitaryChannel
    layers: tuple[tuple[tuple[str, int], ...], ...]
    model: str
    boundary: str = "ring"

    @property
    def system(self) -> CompositeSystem:
        return self.step.input


def build_ring(
    layers: Sequence[Sequence[tuple[ClassicalChannel | UnitaryChannel, int]]],
    cells: int,
    cell_dim: int,
    model: str = "classical",
    boundary: str = "ring",
    max_dim: Optional[int] = None,
) -> RingAutomaton:
    """Compose gate layers into a one-step automaton.

    Each layer is a sequence of ``(gate, at)`` pairs; a gate of arity k covers
    cells ``at .. at+k-1`` with cyclic indexing (no wrap-around when
    ``boundary="open"``). Gates within one layer must not overlap.
    """
    if cells < 2 or cell_dim < 2:
        raise SpecError("a ring needs at least 2 cells of dimension >= 2")
    if model not in DEFAULT_MAX_DIM:
        raise SpecError(f"model must be one of {sorted(DEFAULT_MAX_DIM)}")
    cap = max_dim if max_dim is not None else DEFAULT_MAX_DIM[model]
    if cell_dim**cells > cap:
        raise BudgetError(
            f"ring dimension {cell_dim}**{cells} exceeds the cap of {cap}"
        )
    ring = composite(*((_cell_name(i), cell_dim) for i in range(cells)))
    cls = ClassicalChannel if model == "classical" else UnitaryChannel
    step = cls.identity(ring)
    described = []
    for layer_no, layer in enumerate(layers):
        occupied: set[int] = set()
        layer_channel = cls.identity(ring)
        layer_desc = []
        for gate, at in layer:
            if not isinstance(gate, cls):
                raise SpecError(f"layer {layer_no}: gate model does not match {model!r}")
            arity = len(gate.input)
            if arity > cells:
                raise SpecError(f"layer {layer_no}: gate arity {arity} exceeds ring size")
            if any(d != cell_dim for d in gate.input.dims) or gate.input.dims != gate.output.dims:
                raise SpecError(
                    f"layer {layer_no}: gate wires must all have the cell dimension {cell_dim}"
                )
            span = [(at + k) % cells for k in range(arity)]
            if boundary == "open" and any((at + k) >= cells for k in range(arity)):
                raise SpecError(f"layer {layer_no}: gate at {at} spills past the open boundary")
            if occupied & set(span):
                raise SpecError(f"layer {layer_no}: overlapping gates at cells {sorted(span)}")
            occupied |= set(span)
            names = [_cell_name(i) for i in span]
            placed = embed_on(gate.with_names(names, names), ring)
            layer_channel = placed.compose(layer_channel)
            layer_desc.append((type(gate).__name__, at))
        step = layer_channel.compose(step)
        described.append(tuple(layer_desc))
    return RingAutomaton(
        cells=cells,
        cell_dim=cell_dim,
        step=step,
        layers=tuple(described),
        model=model,
        boundary=boundary,
    )


@dataclass(frozen=True)
class CellNeighbourhood:
    cell: str
    causal: frozenset[str]
    signalling: frozenset[str]


def neighbourhood_map(
    a: RingAutomaton, steps: int, tol: float = DEFAULT_TOL
) -> tuple[CellNeighbourhood, ...]:
    """Per-cell causal neighbourhood and signalling set of the iterated step."""
    if steps < 1:
        raise SpecError("steps must be >= 1")
    return _cell_neighbourhoods(a, iterate(a.step, steps), tol)


def _cell_neighbourhoods(
    a: RingAutomaton, u: ClassicalChannel | UnitaryChannel, tol: float
) -> tuple[CellNeighbourhood, ...]:
    out = []
    for name in a.system.names:
        causal = neighbourhood(u, [name], tol)
        sig = frozenset(t for t in a.system.names if u.signals([name], [t], tol))
        if not sig <= causal:
            raise ConsistencyError(
                f"signalling set of {name} escapes its causal neighbourhood"
            )
        out.append(CellNeighbourhood(cell=name, causal=causal, signalling=sig))
    return tuple(out)


@dataclass(frozen=True)
class ConeRow:
    step: int
    causal_sizes: tuple[int, ...]
    signalling_sizes: tuple[int, ...]

    @classmethod
    def from_map(cls, step: int, entries: Sequence[CellNeighbourhood]) -> "ConeRow":
        """Both cone sizes per cell of one step count's neighbourhood map."""
        return cls(
            step=step,
            causal_sizes=tuple(len(e.causal) for e in entries),
            signalling_sizes=tuple(len(e.signalling) for e in entries),
        )


def _iterated_maps(
    a: RingAutomaton, max_steps: int, tol: float
) -> list[tuple[CellNeighbourhood, ...]]:
    """Neighbourhood maps for step counts 1..``max_steps``, each computed once.

    ``U^t = step . U^(t-1)`` is kept between step counts. The cone budget is
    checked before the first neighbourhood is computed.
    """
    bits = a.cells * math.log2(a.cell_dim)
    limit = 12 if a.model == "classical" else 6
    if bits > limit:
        raise BudgetError(
            f"cone growth capped at {limit} cell-bits for the {a.model} model, got {bits:.1f}"
        )
    maps = []
    u = a.step
    for t in range(1, max_steps + 1):
        if t > 1:
            u = a.step.compose(u)
        maps.append(_cell_neighbourhoods(a, u, tol))
    return maps


def neighbourhood_maps(
    a: RingAutomaton, steps: int, tol: float = DEFAULT_TOL
) -> tuple[tuple[CellNeighbourhood, ...], ...]:
    """``neighbourhood_map`` for every step count up to ``steps``, under the cone budget."""
    if steps < 1:
        raise SpecError("steps must be >= 1")
    return tuple(_iterated_maps(a, steps, tol))


def cone_growth(
    a: RingAutomaton, max_steps: int, tol: float = DEFAULT_TOL
) -> tuple[ConeRow, ...]:
    """Sizes of both cones per cell for each step count up to ``max_steps``."""
    return tuple(
        ConeRow.from_map(t, nm) for t, nm in enumerate(_iterated_maps(a, max_steps, tol), 1)
    )
