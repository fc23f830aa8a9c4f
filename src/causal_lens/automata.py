"""One-step reversible cellular automata on rings and their two neighbourhoods.

An automaton is built from layers of identical-dimension gates placed at
cyclic positions; its step channel is the ordered composition of the layers.
The step is built by contraction, with no channel per gate: each gate is
applied to the running step on its own cells (quantumly a ``tensordot`` on the
cell axes of the step's matrix, classically a lookup on the cell digits of its
table), and the result is certified once.
The causal neighbourhoods and signalling sets of all cells come from
``causal.wire_relations`` on the iterated step: one ``influence_relation``
pass (the probe processes of the cells gathered as stacks, each output
cell's idle test run once per stack, each probe's joint factorization
checked, no channel built) and one ``wire_signalling`` pass, with the
signalling set of every cell checked to lie inside its causal
neighbourhood. A strict gap is the classical phenomenon that disappears
when the same layout is quantized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .causal import iterate, wire_relations
from .classical import ClassicalChannel
from .errors import BudgetError, SpecError
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

    Each gate acts on the running step, gate wire ``j`` on cell ``at+j``:
    quantumly the step is a tensor with one axis per output cell and one for
    the input index, and the gate is contracted into its cells' axes;
    classically the gate's table is looked up on its cells' digits of the
    step's table. The step channel is built and certified once, at the end
    (the gates were certified when they were built).
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
    n = ring.total_dim
    # the step so far: classically its table, quantumly its matrix [cells..., input]
    acc = np.arange(n) if model == "classical" else np.eye(n).reshape(ring.dims + (n,))
    described = []
    for layer_no, layer in enumerate(layers):
        occupied: set[int] = set()
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
            if model == "classical":
                names = [_cell_name(i) for i in span]
                acc = ring.with_digits(acc, names, gate._arr[ring.digits(acc, names)])
            else:
                g = gate.matrix.reshape(gate.input.dims * 2)
                acc = np.tensordot(g, acc, axes=(range(arity, 2 * arity), span))
                acc = np.moveaxis(acc, range(arity), span)
            layer_desc.append((type(gate).__name__, at))
        described.append(tuple(layer_desc))
    step = cls(ring, ring, acc if model == "classical" else acc.reshape(n, n))
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
    return _cell_neighbourhoods(iterate(a.step, steps), tol)


def _cell_neighbourhoods(
    u: ClassicalChannel | UnitaryChannel, tol: float
) -> tuple[CellNeighbourhood, ...]:
    influence, signalling = wire_relations(u, tol)
    return tuple(
        CellNeighbourhood(
            cell=name,
            causal=frozenset(t for t, hit in zip(u.output.names, causal_row) if hit),
            signalling=frozenset(t for t, hit in zip(u.output.names, sig_row) if hit),
        )
        for name, causal_row, sig_row in zip(u.input.names, influence, signalling)
    )


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
    limit = int(math.log2(DEFAULT_MAX_DIM[a.model]))
    if bits > limit:
        raise BudgetError(
            f"cone growth capped at {limit} cell-bits for the {a.model} model, got {bits:.1f}"
        )
    maps = []
    u = a.step
    for t in range(1, max_steps + 1):
        if t > 1:
            u = a.step.compose(u)
        maps.append(_cell_neighbourhoods(u, tol))
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
