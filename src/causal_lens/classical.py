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
import math
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
    """``ok[p, j]``: whether every step along axis ``axes[j]`` of row ``grid[p]``
    moves the entry by exactly ``steps[j]``; ``.all(axis=1)`` asks it of all axes.

    The grid-level identity test, every axis of a stack in one call. Each
    axis is viewed as ``(rows, L, d, R)`` and ``g[:, :, 1:] - g[:, :, :-1]``
    is compared with the step; a dim-1 axis has no step and reads True. With
    steps of 0 it says the row does not vary along the axis (no signalling).
    With the output strides of wires paired to the axes it says each axis'
    digit passes through: for a bijection that holds exactly when each digit
    passes through to the output wire of that stride (of the same dim) and no
    other output digit depends on it, since each line along an axis then
    maps onto ``dim`` consecutive values of ``index // stride``, and runs of
    that length tile the index space only when each starts at digit 0.
    """
    rows, shape = len(grid), grid.shape[1:]
    ok = np.ones((rows, len(axes)), dtype=bool)
    for j, (a, step) in enumerate(zip(axes, steps)):
        g = grid.reshape(rows, math.prod(shape[:a]), shape[a], math.prod(shape[a + 1 :]))
        ok[:, j] = (g[:, :, 1:] - g[:, :, :-1] == step).all(axis=(1, 2, 3))
    return ok


def _bijective(tables: np.ndarray) -> np.ndarray:
    """Whether each table (along the last axis) is a permutation of its indices."""
    return (np.sort(tables, axis=-1) == np.arange(tables.shape[-1])).all(axis=-1)


def _certify_bijection(tables: np.ndarray) -> None:
    """The channel certificate, on one table or on each of a stack."""
    if not _bijective(tables).all():
        raise SpecError("table is not a bijection on joint indices")


class _ArrayTable:
    """A table kept as a read-only int64 array ``_arr``; ``table``, the same
    table as a tuple (-1, the null event, as None), is built on first access."""

    def _keep(self, arr: np.ndarray) -> np.ndarray:
        arr.flags.writeable = False
        object.__setattr__(self, "_arr", arr)
        object.__delattr__(self, "table")  # rebuilt from the array on first access
        return arr

    def __getattr__(self, name: str):
        # reached only while the ``table`` tuple is not cached on the instance
        if name != "table":
            raise AttributeError(name)
        table = tuple(None if v < 0 else v for v in self._arr.tolist())
        object.__setattr__(self, "table", table)
        return table


@dataclass(frozen=True)
class ClassicalChannel(_ArrayTable):
    """A bijection between the joint indices of two equal-cardinality systems."""

    input: CompositeSystem
    output: CompositeSystem
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        arr = self._keep(np.array(self.table, dtype=np.int64))
        n = self.input.total_dim
        if self.output.total_dim != n:
            raise SpecError(
                f"reversible channel needs equal cardinalities, got {n} -> {self.output.total_dim}"
            )
        if len(arr) != n:
            raise SpecError(f"table length {len(arr)} != input total_dim {n}")
        _certify_bijection(arr)

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
        return not _steps_by(grid, from_pos, [0] * len(from_pos))[0].all()

    def wire_signalling(self, tol: float = 0.0) -> np.ndarray:
        """The single-wire signalling relation: ``r[i, t]`` iff input ``i`` signals to output ``t``.

        Entry ``[i, t]`` is ``signals([input i], [output t])``, decided in one
        pass: the output-digit grid ``g[t, x_0, ..., x_{n-1}]`` is built once
        (``digit_rows`` of the table, one broadcast against the output strides),
        and ``r`` is where it varies along each input axis, every target at
        once: one ``_steps_by`` call with a step of 0, negated and transposed.
        ``tol`` is unused.
        """
        grid = self.output.digit_rows(self._arr).reshape((len(self.output),) + self.input.dims)
        return ~_steps_by(grid, range(len(self.input)), [0] * len(self.input)).T

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
        if not _steps_by(grid, in_pos, strides)[0].all():
            return None
        # the factor is the table of the remaining outputs with the idle inputs at 0
        w_in = self.input.restrict(self.input.complement(idle))
        w_out = self.output.restrict(self.output.complement(idle))
        w_table = self.output.digits(_at_zero(grid, [k + 1 for k in in_pos]), w_out.names)
        return ClassicalChannel(w_in, w_out, w_table.reshape(-1))


def _event_array(table) -> np.ndarray:
    """An instrument table as an int64 array, the null event (``None`` or -1) as -1."""
    arr = np.asarray(table)
    if arr.dtype == object:
        arr = np.where(np.equal(arr, None), -1, arr)
    return arr.astype(np.int64)


@dataclass(frozen=True)
class ClassicalInstrument(_ArrayTable):
    """A sub-normalized partial function: one event of a classical test.

    ``table[x]`` is the prepared joint index, or None for the null event (-1
    in an array). Deterministic channels are total tables; an atom measures
    ``i`` and prepares ``j``, undefined elsewhere.
    """

    input: CompositeSystem
    output: CompositeSystem
    table: tuple[Optional[int], ...]

    def __post_init__(self) -> None:
        arr = self._keep(_event_array(self.table))
        if len(arr) != self.input.total_dim:
            raise SpecError("instrument table length must equal input total_dim")
        if (arr == -1).all():
            raise SpecError("instrument must have at least one defined atom")
        bad = np.flatnonzero((arr < -1) | (arr >= self.output.total_dim))
        if bad.size:
            raise SpecError(f"prepared index {arr[bad[0]]} out of range")

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
        return bool((self._arr >= 0).all())

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        (defined,) = np.nonzero(self._arr >= 0)
        return frozenset(zip(defined.tolist(), self._arr[defined].tolist()))

    def apply(self, x: int) -> Optional[int]:
        """Apply one event: the prepared index, or None for the null event."""
        if not 0 <= x < self.input.total_dim:
            raise SpecError(f"input index {x} out of range")
        v = int(self._arr[x])
        return None if v < 0 else v


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
