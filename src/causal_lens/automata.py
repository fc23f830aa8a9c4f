"""One-step reversible cellular automata on rings and their two neighbourhoods.

An automaton is built from layers of identical-dimension gates placed at
cyclic positions; its step channel is the ordered composition of the layers.
The step is built by contraction, with no channel per gate: each gate is
applied to the running step on its own cells (quantumly one matrix product,
the step's axes of the gate's cells moved to the front and flattened into the
gate's input index; classically the step is kept as digit rows, one row per
cell, and the gate's table is looked up on its cells' rows folded into one
index and unfolded back into them), and the result is certified once.
The causal neighbourhoods and signalling sets of all cells are the two bool
arrays ``causal.wire_relations`` returns for the iterated step, indexed
``[input cell, output cell]``, with no channel built. Classically it runs
one probe pass per stack of cells and one signalling pass, and checks each
cell's signalling row to lie inside its influence row (a strict gap is the
classical phenomenon that disappears when the same layout is quantized); the
one-step relation is then checked against the light cone of the layers' gate
spans, and each step count's against the composition law of neighbourhoods,
as boolean products of the influence arrays. Quantumly one Gram loop reads
both ``δ`` of every cell pair, a product per chunk of probe and Heisenberg
blocks (all of them in one for a ring of up to 4 qubits), and the two must
agree as values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .causal import wire_relations
from .classical import ClassicalChannel
from .errors import BudgetError, ConsistencyError, SpecError
from .quantum import DEFAULT_TOL, UnitaryChannel
from .systems import CompositeSystem, composite

__all__ = [
    "RingAutomaton",
    "build_ring",
    "neighbourhood_maps",
]

DEFAULT_MAX_DIM = {"classical": 4096, "quantum": 64}


def _cell_name(i: int) -> str:
    return f"c{i}"


@dataclass(frozen=True, eq=False)
class RingAutomaton:
    """A reversible one-step update on a ring of identical cells.

    ``spans`` gives, layer by layer, the cells each gate covers, in gate-wire
    order.
    """

    cells: int
    cell_dim: int
    step: ClassicalChannel | UnitaryChannel
    model: str
    boundary: str = "ring"
    spans: tuple[tuple[tuple[int, ...], ...], ...] = ()

    @property
    def system(self) -> CompositeSystem:
        return self.step.input

    def light_cone(self) -> np.ndarray:
        """``r[i, t]`` iff the layers' gates connect input cell ``i`` to output cell ``t``.

        The boolean product of the layers' block relations, first layer
        first: within a layer each gate's span maps to itself and a cell no
        gate covers maps to itself.
        """
        cone = np.eye(self.cells, dtype=bool)
        for layer in self.spans:
            block = np.arange(self.cells)  # each cell's block, named by one of its cells
            for span in layer:
                block[list(span)] = span[0]
            cone = cone @ (block[:, None] == block)
        return cone


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
    cells ``at .. at+k-1`` with cyclic indexing (with ``boundary="open"`` the
    span must lie in ``0 .. cells-1``, no wrap-around). Gates within one
    layer must not overlap.

    Each gate acts on the running step, gate wire ``j`` on cell ``at+j``:
    quantumly the step is a tensor with one axis per output cell and one for
    the input index; the gate's cells' axes are moved to the front (a view)
    and flattened into its input index (one copy), multiplied by the gate's
    matrix, and moved back;
    classically the step is its digit rows ``acc[cell, x]``, the gate's
    cells' rows are folded big-endian into its input index, looked up in its
    table and written back by ``divmod``, and the table is
    ``Σ_k strides[k]·acc[k]``. The step channel is built and certified once,
    at the end (the gates were certified when they were built).
    """
    if cells < 2 or cell_dim < 2:
        raise SpecError("a ring needs at least 2 cells of dimension >= 2")
    if model not in DEFAULT_MAX_DIM:
        raise SpecError(f"model must be one of {sorted(DEFAULT_MAX_DIM)}")
    if boundary not in ("open", "ring"):
        raise SpecError("boundary must be one of ['open', 'ring']")
    cap = max_dim if max_dim is not None else DEFAULT_MAX_DIM[model]
    if cell_dim**cells > cap:
        raise BudgetError(
            f"ring dimension {cell_dim}**{cells} exceeds the cap of {cap}"
        )
    ring = composite(*((_cell_name(i), cell_dim) for i in range(cells)))
    cls = ClassicalChannel if model == "classical" else UnitaryChannel
    n = ring.total_dim
    # the step so far: classically its digit rows [cell, input], quantumly its
    # matrix [cells..., input]
    if model == "classical":
        acc = ring.digit_rows(np.arange(n))
    else:
        acc = np.eye(n).reshape(ring.dims + (n,))
    spans = []
    for layer_no, layer in enumerate(layers):
        occupied: set[int] = set()
        layer_spans = []
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
            if boundary == "open" and (at < 0 or at + arity > cells):
                raise SpecError(f"layer {layer_no}: gate at {at} spills past the open boundary")
            if occupied & set(span):
                raise SpecError(f"layer {layer_no}: overlapping gates at cells {sorted(span)}")
            occupied |= set(span)
            if model == "classical":
                # fold the cells' rows into the gate's input index, look it
                # up, and unfold the gate's output into the same rows
                idx = acc[span[0]]
                for c in span[1:]:
                    idx = idx * cell_dim + acc[c]
                out = gate._arr[idx]
                for c in reversed(span):
                    out, acc[c] = divmod(out, cell_dim)
            else:
                order = span + [k for k in range(acc.ndim) if k not in span]
                back = sorted(range(acc.ndim), key=order.__getitem__)  # the inverse order
                moved = acc.transpose(order)
                out = gate.matrix @ moved.reshape(gate.input.total_dim, -1)
                acc = out.reshape(moved.shape).transpose(back)
            layer_spans.append(tuple(span))
        spans.append(tuple(layer_spans))
    if model == "classical":
        step = cls(ring, ring, np.array(ring.strides, dtype=np.int64) @ acc)
    else:
        step = cls(ring, ring, acc.reshape(n, n))
    return RingAutomaton(
        cells=cells,
        cell_dim=cell_dim,
        step=step,
        model=model,
        boundary=boundary,
        spans=tuple(spans),
    )


def _iterated_maps(
    a: RingAutomaton, max_steps: int, tol: float
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``wire_relations`` of ``U^t`` for step counts 1..``max_steps``, each computed once.

    ``U^t = step . U^(t-1)`` is kept between step counts. The cone budget is
    checked before the first neighbourhood is computed. The neighbourhood of
    a composition lies inside the composed neighbourhoods, so the classical
    influence relation must satisfy ``r_1 ⊆`` the layers' ``light_cone`` and
    ``r_t ⊆ r_(t-1) · r_1`` as boolean products; a violation is a
    consistency error. The quantum relations are thresholded ``δ``, for
    which the boolean law fails inside the band.
    """
    bits = a.cells * math.log2(a.cell_dim)
    limit = int(math.log2(DEFAULT_MAX_DIM[a.model]))
    if bits > limit:
        raise BudgetError(
            f"cone growth capped at {limit} cell-bits for the {a.model} model, got {bits:.1f}"
        )
    maps = []
    u = a.step
    exact = a.model == "classical"
    for t in range(1, max_steps + 1):
        if t > 1:
            u = a.step.compose(u)
        influence, signalling = wire_relations(u, tol)
        if exact and not maps and (influence & ~a.light_cone()).any():
            raise ConsistencyError("the step's neighbourhoods escape the light cone of its layers")
        if exact and maps and (influence & ~(maps[-1][0] @ maps[0][0])).any():
            raise ConsistencyError(f"the step-{t} neighbourhoods escape the composed neighbourhoods")
        maps.append((influence, signalling))
    return maps


def neighbourhood_maps(
    a: RingAutomaton, steps: int, tol: float = DEFAULT_TOL
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """``(influence, signalling)`` of ``U^t`` for every step count ``t`` up to ``steps``,
    under the cone budget: the bool arrays ``wire_relations`` returns, indexed
    ``[input cell, output cell]``, so row ``i`` is cell ``i``'s causal
    neighbourhood and signalling set after ``t`` steps."""
    if steps < 1:
        raise SpecError("steps must be >= 1")
    return tuple(_iterated_maps(a, steps, tol))
