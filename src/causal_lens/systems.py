"""Named composite systems and big-endian mixed-radix joint indexing.

A composite system is an ordered tuple of named finite wires. Joint indices
use big-endian mixed radix: the leftmost wire is the most significant digit,
matching top-to-bottom circuit wire order. The empty composite is the trivial
system (total dimension 1), so tensoring with it is a no-op by construction.

Wires are identified by name, not position, so subset queries survive
reordering.

``CompositeSystem.digits`` and ``with_digits`` are the one array codec for
the joint index of named wires: they read and write the named wires of whole
arrays of joint indices by strides (``_read_digits`` / ``_write_digits``,
whose strides may vary along a stack). ``digit_rows`` reads every wire's own
digit at once, one row per wire, in one broadcast against the strides.
``flatten``/``unflatten`` are the validated scalar forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import SpecError

__all__ = ["SubsystemLabel", "CompositeSystem", "composite"]


def _strides(dims: Sequence[int]) -> tuple[int, ...]:
    """Big-endian mixed-radix strides of wires with the given dims."""
    out = [1] * len(dims)
    for k in range(len(dims) - 1, 0, -1):
        out[k - 1] = out[k] * dims[k]
    return tuple(out)


@dataclass(frozen=True)
class SubsystemLabel:
    """A named finite wire; ``dim`` is the alphabet size or Hilbert dimension.

    ``dim == 1`` denotes a trivial wire.
    """

    name: str
    dim: int

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise SpecError("subsystem name must be a non-empty string")
        if self.dim < 1:
            raise SpecError(f"subsystem {self.name!r}: dim must be >= 1, got {self.dim}")


@dataclass(frozen=True)
class CompositeSystem:
    """An ordered sequence of uniquely named wires."""

    parts: tuple[SubsystemLabel, ...]

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        names = tuple(p.name for p in parts)
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise SpecError(f"duplicate wire names {dup} in composite system")
        dims = tuple(p.dim for p in parts)
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_dims", dims)
        object.__setattr__(self, "_strides", _strides(dims))
        object.__setattr__(self, "_positions", {n: k for k, n in enumerate(names)})
        object.__setattr__(self, "_total_dim", math.prod(dims))

    # -- basic views ---------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def strides(self) -> tuple[int, ...]:
        """Big-endian strides: ``strides[k]`` is the weight of wire ``k``'s digit."""
        return self._strides

    @property
    def total_dim(self) -> int:
        return self._total_dim

    def __len__(self) -> int:
        return len(self.parts)

    def position(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise SpecError(
                f"unknown wire name {name!r}; system has {list(self.names)}"
            ) from None

    def subset_positions(self, names: Iterable[str]) -> tuple[int, ...]:
        """Positions of the named wires, ascending; rejects unknowns and duplicates."""
        return tuple(sorted(self.layout(list(names))[0]))

    def complement(self, names: Iterable[str]) -> tuple[str, ...]:
        """Names of the wires not in ``names``, in system order."""
        inside = self.subset_positions(names)
        return tuple(n for k, n in enumerate(self.names) if k not in inside)

    def restrict(self, names: Iterable[str]) -> "CompositeSystem":
        """Sub-composite of the named wires, kept in system order."""
        return CompositeSystem(tuple(self.parts[k] for k in self.subset_positions(names)))

    def select(self, order: Sequence[str]) -> "CompositeSystem":
        """Sub-composite of the named wires, in the order given."""
        return CompositeSystem(tuple(self.parts[k] for k in self.layout(order)[0]))

    def layout(self, names: Sequence[str]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Positions and dims of the named wires, in the order given.

        The layout of ``select(names)`` without building it; rejects unknown
        and duplicate names.
        """
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate names in subset: {list(names)}")
        pos = tuple(self.position(n) for n in names)
        return pos, tuple(self._dims[k] for k in pos)

    def concat(self, other: "CompositeSystem") -> "CompositeSystem":
        return CompositeSystem(self.parts + other.parts)

    # -- joint-index codec ---------------------------------------------------

    def flatten(self, values: Sequence[int]) -> int:
        """Encode one value per wire into a joint index (big-endian)."""
        if len(values) != len(self.parts):
            raise SpecError(
                f"expected {len(self.parts)} components, got {len(values)}"
            )
        idx = 0
        for k, (v, part) in enumerate(zip(values, self.parts)):
            if not 0 <= v < part.dim:
                raise IndexError(
                    f"component {k} ({part.name}): value {v} out of range for dim {part.dim}"
                )
            idx = idx * part.dim + v
        return idx

    def unflatten(self, index: int) -> tuple[int, ...]:
        """Decode a joint index into one value per wire; inverse of :meth:`flatten`."""
        if not 0 <= index < self.total_dim:
            raise IndexError(f"joint index {index} out of range for total_dim {self.total_dim}")
        out = [0] * len(self.parts)
        for k in range(len(self.parts) - 1, -1, -1):
            index, out[k] = divmod(index, self.parts[k].dim)
        return tuple(out)

    def digit_rows(self, index) -> np.ndarray:
        """Every wire's digit of each joint ``index``, one row per wire.

        ``out[k]`` is wire ``k``'s digit of ``index``, for an integer array
        of any shape: the vector form of :meth:`unflatten`, read in one
        broadcast. The empty system has no rows.
        """
        index = np.asarray(index, dtype=np.int64)
        shape = (len(self),) + (1,) * index.ndim
        strides = np.array(self._strides, dtype=np.int64).reshape(shape)
        return index // strides % np.array(self._dims, dtype=np.int64).reshape(shape)

    def digits(self, index, names: Sequence[str]) -> np.ndarray:
        """Joint index of ``select(names)`` read off each joint ``index``.

        The named wires' digits are read in the order given. Vectorized over
        any integer array ``index``, one pass per named wire; no names read 0.
        """
        pos, dims = self.layout(names)
        strides = [self._strides[k] for k in pos]
        return _read_digits(np.asarray(index, dtype=np.int64), strides, dims)

    def with_digits(self, index, names: Sequence[str], values) -> np.ndarray:
        """Each joint ``index`` with the named wires' digits set from ``values``.

        ``values`` holds joint indices of ``select(names)``, the inverse of
        :meth:`digits`; it broadcasts against ``index``. One pass per named wire.
        """
        pos, dims = self.layout(names)
        strides = [self._strides[k] for k in pos]
        return _write_digits(
            np.asarray(index, dtype=np.int64), strides, dims, np.asarray(values, dtype=np.int64)
        )


def _paired_layout(
    input: CompositeSystem, output: CompositeSystem, names: Sequence[str]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Input and output positions of wires paired by name, in the order given.

    Rejects unknown and duplicate names, and a wire whose dim differs between the sides.
    """
    (in_pos, in_dims), (out_pos, out_dims) = input.layout(names), output.layout(names)
    for name, din, dout in zip(names, in_dims, out_dims):
        if din != dout:
            raise SpecError(f"idle wire {name!r} has input dim {din} != output dim {dout}")
    return in_pos, out_pos


def _grounded(system: CompositeSystem, names: Sequence[str]) -> np.ndarray:
    """Joint indices with the ``names`` wires running over ``select(names)``, others at 0.

    With every wire named, this is the inverse of reading the wires in that order.
    """
    return system.with_digits(0, names, np.arange(system.select(names).total_dim))


def _read_digits(index: np.ndarray, strides, dims: Sequence[int]) -> np.ndarray:
    """Joint index (radices ``dims``) of the digits of ``index`` at ``strides``.

    The codec behind ``digits``. A stride may be an integer array that
    broadcasts against ``index``: each row of a stack then reads its own wires.
    """
    out = np.zeros_like(index)
    for stride, sub_stride, dim in zip(strides, _strides(dims), dims):
        out = out + index // stride % dim * sub_stride
    return out


def _write_digits(index: np.ndarray, strides, dims: Sequence[int], values) -> np.ndarray:
    """Each ``index`` with its digits at ``strides`` set from ``values``.

    The codec behind ``with_digits``, the inverse of ``_read_digits``; strides
    broadcast as there.
    """
    out = index + np.zeros_like(values)
    for stride, sub_stride, dim in zip(strides, _strides(dims), dims):
        out = out + (values // sub_stride % dim - out // stride % dim) * stride
    return out


def composite(*parts: tuple[str, int] | SubsystemLabel) -> CompositeSystem:
    """Build a system from ``(name, dim)`` pairs or labels: ``composite(("A", 2), ("B", 2))``."""
    labels = tuple(
        p if isinstance(p, SubsystemLabel) else SubsystemLabel(p[0], p[1]) for p in parts
    )
    return CompositeSystem(labels)
