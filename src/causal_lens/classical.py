"""Reversible classical channels as permutations over product alphabets.

A reversible channel on finite alphabets is a bijective lookup table between
joint indices; everything here is exact integer arithmetic, so the ``tol``
parameters accepted for interface parity with the quantum model are unused.

Instruments (interventions) are sub-normalized partial functions: a
deterministic table is total, a measure-``i``/prepare-``j`` atom is defined at
a single point, and undefined points are explicit null events rather than
renormalized branches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import SpecError
from .systems import CompositeSystem, _paired_layout, composite

__all__ = [
    "ClassicalChannel",
    "ClassicalInstrument",
    "cnot",
    "cyclic_shift",
    "random_reversible",
    "swap_gate",
    "xor_feedback",
]


def _at_zero(grid: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """``grid`` with each of ``axes`` held at index 0, kept as a length-1 axis."""
    return grid[tuple(slice(0, 1) if a in axes else slice(None) for a in range(grid.ndim))]


def _steps_by(grid: np.ndarray, axes: Sequence[int], steps: Sequence[int]) -> np.ndarray:
    """For each row ``grid[p]``, whether every step along each of its ``axes``
    moves the entry by exactly that axis' ``steps``.

    The grid-level identity test. With steps of 0 it says the row does not
    vary along the axes (no signalling). With the output strides of wires
    paired to the axes it says each axis' digit passes through: for a
    bijection that holds exactly when each digit passes through to the
    output wire of that stride (of the same dim) and no other output digit
    depends on it, since each line along an axis then maps onto ``dim``
    consecutive values of ``index // stride``, and runs of that length tile
    the index space only when each starts at digit 0.
    """
    ok = np.ones(len(grid), dtype=bool)
    for a, step in zip(axes, steps):
        ok &= (np.diff(grid, axis=a + 1) == step).reshape(len(grid), -1).all(axis=1)
    return ok


def _bijective(tables: np.ndarray) -> np.ndarray:
    """Whether each table (along the last axis) is a permutation of its indices."""
    return (np.sort(tables, axis=-1) == np.arange(tables.shape[-1])).all(axis=-1)


def _certify_bijection(tables: np.ndarray) -> None:
    """The channel certificate, on one table or on each of a stack."""
    if not _bijective(tables).all():
        raise SpecError("table is not a bijection on joint indices")


@dataclass(frozen=True)
class ClassicalChannel:
    """A bijection between the joint indices of two equal-cardinality systems.

    The bijection is kept as a read-only array; ``table``, the same bijection
    as a tuple, is built from it on first access.
    """

    input: CompositeSystem
    output: CompositeSystem
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        arr = np.array(self.table, dtype=np.int64)
        arr.flags.writeable = False
        object.__setattr__(self, "_arr", arr)
        object.__delattr__(self, "table")  # rebuilt from the array on first access
        n = self.input.total_dim
        if self.output.total_dim != n:
            raise SpecError(
                f"reversible channel needs equal cardinalities, got {n} -> {self.output.total_dim}"
            )
        if len(arr) != n:
            raise SpecError(f"table length {len(arr)} != input total_dim {n}")
        _certify_bijection(arr)

    def __getattr__(self, name: str):
        # reached only while the ``table`` tuple is not cached on the instance
        if name != "table":
            raise AttributeError(name)
        table = tuple(self._arr.tolist())
        object.__setattr__(self, "table", table)
        return table

    # -- evaluation ----------------------------------------------------------

    def apply(self, x: int) -> int:
        return self.table[x]

    def apply_values(self, values: Sequence[int]) -> tuple[int, ...]:
        return self.output.unflatten(self.table[self.input.flatten(values)])

    # -- constructors ----------------------------------------------------------

    @classmethod
    def identity(cls, system: CompositeSystem) -> "ClassicalChannel":
        return cls(system, system, np.arange(system.total_dim))

    @classmethod
    def from_index_permutation(
        cls, input: CompositeSystem, output: CompositeSystem, table: Sequence[int]
    ) -> "ClassicalChannel":
        """A channel given directly by its joint-index bijection."""
        return cls(input, output, table)

    # -- algebra -------------------------------------------------------------

    def compose(self, first: "ClassicalChannel") -> "ClassicalChannel":
        """``self  first``: run ``first``, then ``self``."""
        if first.output.dims != self.input.dims:
            raise SpecError(
                f"cannot compose: inner output dims {first.output.dims} != outer input dims {self.input.dims}"
            )
        return ClassicalChannel(first.input, self.output, self._arr[first._arr])

    def tensor(self, other: "ClassicalChannel") -> "ClassicalChannel":
        inp = self.input.concat(other.input)
        out = self.output.concat(other.output)
        m_out = other.output.total_dim
        table = (self._arr[:, None] * m_out + other._arr[None, :]).reshape(-1)
        return ClassicalChannel(inp, out, table)

    def invert(self) -> "ClassicalChannel":
        return ClassicalChannel(self.output, self.input, np.argsort(self._arr))

    def with_names(
        self,
        input_names: Optional[Sequence[str]] = None,
        output_names: Optional[Sequence[str]] = None,
    ) -> "ClassicalChannel":
        """Same table with renamed wires."""
        inp, out = self.input, self.output
        if input_names is not None:
            inp = composite(*zip(input_names, inp.dims))
        if output_names is not None:
            out = composite(*zip(output_names, out.dims))
        return ClassicalChannel(inp, out, self._arr)

    # -- causal-structure primitives -----------------------------------------

    def signals(self, from_in: Iterable[str], to_out: Iterable[str], tol: float = 0.0) -> bool:
        """True iff varying the ``from_in`` inputs can move the ``to_out`` marginal.

        Exact: returns False iff the ``to_out`` components of the output are the
        same for all values of the ``from_in`` components, for every fixed value
        of the remaining inputs. ``tol`` is unused.
        """
        from_pos = self.input.subset_positions(from_in)
        grid = self.output.digits(self._arr, tuple(to_out)).reshape((1,) + self.input.dims)
        return not _steps_by(grid, from_pos, [0] * len(from_pos))[0]

    def wire_signalling(self, tol: float = 0.0) -> np.ndarray:
        """The single-wire signalling relation: ``r[i, t]`` iff input ``i`` signals to output ``t``.

        Entry ``[i, t]`` is ``signals([input i], [output t])``, decided in one
        pass: the output-digit grid ``g[t, x_0, ..., x_{n-1}]`` is built once,
        and row ``i`` is where ``g`` varies along input axis ``i``, every target
        at once (``_steps_by`` with a step of 0). ``tol`` is unused.
        """
        grid = np.array([self.output.digits(self._arr, (t,)) for t in self.output.names])
        grid = grid.reshape((len(self.output),) + self.input.dims)
        rel = [~_steps_by(grid, (i,), (0,)) for i in range(len(self.input))]
        return np.array(rel, dtype=bool).reshape(len(self.input), len(self.output))

    def factors_as_identity(
        self, idle: Iterable[str], tol: float = 0.0
    ) -> Optional["ClassicalChannel"]:
        """Factor ``W`` such that the channel is ``W`` tensor identity-on-``idle``.

        The idle wires must appear by name on both sides with equal dimensions.
        Returns None unless (i) every idle output equals the same-named idle
        input and (ii) the remaining outputs do not depend on the idle inputs;
        for a bijection that is ``_steps_by`` the paired output strides on the
        idle input axes.
        """
        idle = tuple(idle)
        in_pos, out_pos = _paired_layout(self.input, self.output, idle)
        grid = self._arr.reshape((1,) + self.input.dims)
        strides = [self.output.strides[k] for k in out_pos]
        if not _steps_by(grid, in_pos, strides)[0]:
            return None
        # the factor is the table of the remaining outputs with the idle inputs at 0
        w_in = self.input.restrict(self.input.complement(idle))
        w_out = self.output.restrict(self.output.complement(idle))
        w_table = self.output.digits(_at_zero(grid, [k + 1 for k in in_pos]), w_out.names)
        return ClassicalChannel(w_in, w_out, w_table.reshape(-1))


@dataclass(frozen=True)
class ClassicalInstrument:
    """A sub-normalized partial function: one event of a classical test.

    ``table[x]`` is the prepared joint index, or None for the null event.
    Deterministic channels are total tables; an atom measures ``i`` and
    prepares ``j``, undefined elsewhere.
    """

    input: CompositeSystem
    output: CompositeSystem
    table: tuple[Optional[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "table", tuple(None if v is None else int(v) for v in self.table)
        )
        if len(self.table) != self.input.total_dim:
            raise SpecError("instrument table length must equal input total_dim")
        if all(v is None for v in self.table):
            raise SpecError("instrument must have at least one defined atom")
        for v in self.table:
            if v is not None and not 0 <= v < self.output.total_dim:
                raise SpecError(f"prepared index {v} out of range")

    @classmethod
    def constant(
        cls, input: CompositeSystem, output: CompositeSystem, prepared: int
    ) -> "ClassicalInstrument":
        return cls(input, output, tuple([prepared] * input.total_dim))

    @classmethod
    def atom(
        cls, input: CompositeSystem, output: CompositeSystem, measured: int, prepared: int
    ) -> "ClassicalInstrument":
        table: list[Optional[int]] = [None] * input.total_dim
        table[measured] = prepared
        return cls(input, output, tuple(table))

    @classmethod
    def identity(cls, system: CompositeSystem) -> "ClassicalInstrument":
        return cls(system, system, tuple(range(system.total_dim)))

    @property
    def is_deterministic(self) -> bool:
        return all(v is not None for v in self.table)

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, v) for i, v in enumerate(self.table) if v is not None)

    def apply(self, x: int) -> Optional[int]:
        """Apply one event: the prepared index, or None for the null event."""
        if not 0 <= x < self.input.total_dim:
            raise SpecError(f"input index {x} out of range")
        return self.table[x]


# -- gate constructors ---------------------------------------------------------


def cnot(
    dim: int = 2,
    names: Sequence[str] = ("A", "B"),
    out_names: Optional[Sequence[str]] = None,
) -> ClassicalChannel:
    """Controlled shift ``(a, b) -> (a, a + b mod dim)``; the familiar C-NOT at dim 2."""
    inp = composite((names[0], dim), (names[1], dim))
    out = composite(*zip(out_names, (dim, dim))) if out_names else inp
    table = [a * dim + (a + b) % dim for a in range(dim) for b in range(dim)]
    return ClassicalChannel(inp, out, tuple(table))


def swap_gate(
    dim: int = 2,
    names: Sequence[str] = ("A", "B"),
    out_names: Optional[Sequence[str]] = None,
) -> ClassicalChannel:
    """Content exchange ``(a, b) -> (b, a)`` on two equal-dimension wires."""
    inp = composite((names[0], dim), (names[1], dim))
    out = composite(*zip(out_names, (dim, dim))) if out_names else inp
    table = [b * dim + a for a in range(dim) for b in range(dim)]
    return ClassicalChannel(inp, out, tuple(table))


def xor_feedback(
    names: Sequence[str] = ("A", "B"), out_names: Optional[Sequence[str]] = None
) -> ClassicalChannel:
    """The target-to-control write-back ``(a, b) -> (a xor b, b)`` on two bits."""
    inp = composite((names[0], 2), (names[1], 2))
    out = composite(*zip(out_names, (2, 2))) if out_names else inp
    table = [(a ^ b) * 2 + b for a in range(2) for b in range(2)]
    return ClassicalChannel(inp, out, tuple(table))


def cyclic_shift(
    dim: int, name: str = "A", out_name: Optional[str] = None, by: int = 1
) -> ClassicalChannel:
    """Single-wire shift ``x -> x + by mod dim``."""
    inp = composite((name, dim))
    out = composite((out_name, dim)) if out_name else inp
    return ClassicalChannel(inp, out, tuple((x + by) % dim for x in range(dim)))


def random_reversible(
    system: CompositeSystem, rng: np.random.Generator, out_system: Optional[CompositeSystem] = None
) -> ClassicalChannel:
    """Uniformly random permutation channel on ``system``."""
    table = rng.permutation(system.total_dim)
    return ClassicalChannel(system, out_system or system, table)


def all_reversible_channels(system: CompositeSystem) -> Iterable[ClassicalChannel]:
    """Every reversible channel on ``system``, in lexicographic table order."""
    for table in itertools.permutations(range(system.total_dim)):
        yield ClassicalChannel(system, system, table)
