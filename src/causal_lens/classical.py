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
from .systems import CompositeSystem, composite

__all__ = [
    "ClassicalChannel",
    "ClassicalInstrument",
    "apply_instrument",
    "cnot",
    "cyclic_shift",
    "random_reversible",
    "swap_gate",
    "xor_feedback",
]


def _digit_arrays(system: CompositeSystem, indices: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Combined value of the wires at ``positions``, vectorized over joint ``indices``."""
    sub = system.select([system.names[p] for p in positions])
    strides = np.asarray(system.strides)
    out = np.zeros_like(indices)
    for sub_stride, p in zip(sub.strides, positions):
        out += (indices // strides[p] % system.dims[p]) * sub_stride
    return out


@dataclass(frozen=True)
class ClassicalChannel:
    """A bijection between the joint indices of two equal-cardinality systems."""

    input: CompositeSystem
    output: CompositeSystem
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        arr = np.asarray(self.table, dtype=np.int64)
        object.__setattr__(self, "table", tuple(arr.tolist()))
        object.__setattr__(self, "_arr", arr)
        n = self.input.total_dim
        if self.output.total_dim != n:
            raise SpecError(
                f"reversible channel needs equal cardinalities, got {n} -> {self.output.total_dim}"
            )
        if len(self.table) != n:
            raise SpecError(f"table length {len(self.table)} != input total_dim {n}")
        if not np.array_equal(np.sort(arr), np.arange(n)):
            raise SpecError("table is not a bijection on joint indices")

    # -- evaluation ----------------------------------------------------------

    def apply(self, x: int) -> int:
        return self.table[x]

    def apply_values(self, values: Sequence[int]) -> tuple[int, ...]:
        return self.output.unflatten(self.table[self.input.flatten(values)])

    # -- constructors ----------------------------------------------------------

    @classmethod
    def identity(cls, system: CompositeSystem) -> "ClassicalChannel":
        return cls(system, system, tuple(range(system.total_dim)))

    @classmethod
    def from_index_permutation(
        cls, input: CompositeSystem, output: CompositeSystem, table: Sequence[int]
    ) -> "ClassicalChannel":
        """A channel given directly by its joint-index bijection."""
        return cls(input, output, tuple(table))

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
        return ClassicalChannel(inp, out, self.table)

    # -- causal-structure primitives -----------------------------------------

    def signals(self, from_in: Iterable[str], to_out: Iterable[str], tol: float = 0.0) -> bool:
        """True iff varying the ``from_in`` inputs can move the ``to_out`` marginal.

        Exact: returns False iff the ``to_out`` components of the output are the
        same for all values of the ``from_in`` components, for every fixed value
        of the remaining inputs. ``tol`` is unused.
        """
        from_pos = self.input.subset_positions(from_in)
        to_pos = self.output.subset_positions(to_out)
        if not from_pos or not to_pos:
            return False
        to_vals = _digit_arrays(self.output, self._arr, to_pos)
        grid = to_vals.reshape(self.input.dims)
        ref = grid
        for ax in from_pos:
            ref = np.take(ref, [0], axis=ax)
        return not np.array_equal(grid, np.broadcast_to(ref, grid.shape))

    def factors_as_identity(
        self, idle: Iterable[str], tol: float = 0.0
    ) -> Optional["ClassicalChannel"]:
        """Factor ``W`` such that the channel is ``W`` tensor identity-on-``idle``.

        The idle wires must appear by name on both sides with equal dimensions.
        Returns None unless (i) every idle output equals the same-named idle
        input and (ii) the remaining outputs do not depend on the idle inputs.
        """
        idle = tuple(idle)
        in_pos = self.input.subset_positions(idle)
        out_pos = self.output.subset_positions(idle)
        for name in idle:
            din = self.input.parts[self.input.position(name)].dim
            dout = self.output.parts[self.output.position(name)].dim
            if din != dout:
                raise SpecError(f"idle wire {name!r} has input dim {din} != output dim {dout}")
        arr = np.arange(self.input.total_dim)
        tbl = self._arr
        # (i) pass-through, paired by name in a fixed canonical order
        order = [self.input.names[p] for p in in_pos]
        in_vals = _digit_arrays(self.input, arr, [self.input.position(n) for n in order])
        out_vals = _digit_arrays(self.output, tbl, [self.output.position(n) for n in order])
        if not np.array_equal(in_vals, out_vals):
            return None
        # (ii) complement outputs independent of idle inputs
        comp_out = [self.output.position(n) for n in self.output.complement(idle)]
        rest_vals = _digit_arrays(self.output, tbl, comp_out).reshape(self.input.dims)
        ref = rest_vals
        for ax in in_pos:
            ref = np.take(ref, [0], axis=ax)
        if not np.array_equal(rest_vals, np.broadcast_to(ref, rest_vals.shape)):
            return None
        # extract the factor on the complements (idle inputs held at 0)
        w_in = self.input.restrict(self.input.complement(idle))
        w_out = self.output.restrict(self.output.complement(idle))
        y = np.arange(w_in.total_dim)
        x = np.zeros_like(y)
        for sub_stride, name in zip(w_in.strides, w_in.names):
            p = self.input.position(name)
            x += (y // sub_stride % w_in.dims[w_in.position(name)]) * self.input.strides[p]
        w_table = _digit_arrays(
            self.output, tbl[x], [self.output.position(n) for n in w_out.names]
        )
        return ClassicalChannel(w_in, w_out, tuple(w_table.tolist()))


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
    def from_function(
        cls, input: CompositeSystem, output: CompositeSystem, table: Sequence[int]
    ) -> "ClassicalInstrument":
        return cls(input, output, tuple(table))

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
        if not 0 <= x < self.input.total_dim:
            raise SpecError(f"input index {x} out of range")
        return self.table[x]


def apply_instrument(instrument: ClassicalInstrument, x: int) -> Optional[int]:
    """Apply one event: the prepared index, or None for the null event."""
    return instrument.apply(x)


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
    return ClassicalChannel(system, out_system or system, tuple(table.tolist()))


def all_reversible_channels(system: CompositeSystem) -> Iterable[ClassicalChannel]:
    """Every reversible channel on ``system``, in lexicographic table order."""
    for table in itertools.permutations(range(system.total_dim)):
        yield ClassicalChannel(system, system, table)
