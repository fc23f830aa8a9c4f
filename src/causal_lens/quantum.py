"""Reversible quantum channels as unitaries over tensor-product spaces.

Matrices are dense, row-major, and indexed by big-endian joint indices, so
``np.kron`` agrees with wire concatenation. Reversibility is unitarity: the
inverse of a channel is its adjoint. All comparisons are absolute entrywise
with a configurable tolerance (default 1e-9); the intended scale is joint
dimension <= 64.

Signalling (``m`` of ``_signalling_terms``) and an identity factor (``w x 1``)
both ask an array to equal delta on axis pairs times its digit-0 slice. That
is one deviation with two readings. ``_delta_gap`` is the full entrywise gap:
it decides one pair or one probe and gives the witnesses and their replay.
``_pair_gap_max`` is the gap's per-row max on one axis pair, read off the
modulus ``|x|`` of a whole stack, which is taken once and shared by every
wire; the relation passes read it. Both compare the same floats, so their
verdicts agree bit for bit. The single-wire signalling pass forms one
Heisenberg product per output wire, ``U+ (E_tu x 1) U`` over every input
digit, and reads each input wire off it as one axis pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import classical
from .classical import _at_zero
from .errors import SpecError
from .systems import CompositeSystem, _paired_layout, composite

__all__ = [
    "DEFAULT_TOL",
    "DensityOperator",
    "StateMap",
    "UnitaryChannel",
    "cnot",
    "from_classical",
    "hadamard",
    "random_unitary",
    "swap_gate",
]

DEFAULT_TOL = 1e-9

# working set of one chunk of a stacked check: the signalling pass here, and
# the influence relation, the quantum memory check and the inverse check of
# ``causal`` (about four arrays the size of one stacked entry each)
_CHECK_CHUNK_BYTES = 1 << 20


def _as_tensor(matrix: np.ndarray, out_dims: Sequence[int], in_dims: Sequence[int]) -> np.ndarray:
    return matrix.reshape(tuple(out_dims) + tuple(in_dims))


def _grouped(
    matrix: np.ndarray,
    out_sys: CompositeSystem,
    in_sys: CompositeSystem,
    out_first: Sequence[str],
    in_first: Sequence[str],
) -> np.ndarray:
    """Matrix with wires transposed so the named groups come first on each side.

    Output shape: (d_out_first, d_out_rest, d_in_first, d_in_rest).
    """
    (o_pos, o_dims), (i_pos, i_dims) = out_sys.layout(out_first), in_sys.layout(in_first)
    axes = _first(o_pos, len(out_sys)) + [len(out_sys) + k for k in _first(i_pos, len(in_sys))]
    t = _as_tensor(matrix, out_sys.dims, in_sys.dims).transpose(axes)
    d_of, d_if = math.prod(o_dims), math.prod(i_dims)
    return t.reshape(d_of, out_sys.total_dim // d_of, d_if, in_sys.total_dim // d_if)


def _first(pos: Sequence[int], n: int) -> list[int]:
    """Axes ``0..n-1`` with ``pos`` first, in the order given, then the rest in order."""
    return list(pos) + [k for k in range(n) if k not in pos]


def _partial_trace(matrix: np.ndarray, system: CompositeSystem, keep: Iterable[str]) -> np.ndarray:
    """Partial trace of any square matrix on ``system``; kept wires stay in system order."""
    kept = system.restrict(keep)
    g = _grouped(matrix, system, system, kept.names, kept.names)
    return np.trace(g, axis1=1, axis2=3)


def _wire_products(
    tensor: np.ndarray, n_out: int, to: Sequence[int], frm: Sequence[int]
) -> np.ndarray:
    """The ``to`` marginals of ``U (E_ab x E_kl) U+`` for input wires ``frm``.

    ``tensor`` is U with one axis per output wire, then one per input wire;
    ``to`` and ``frm`` are wire positions. ``m[t, u, a, k, b, l] = sum_s
    U[(t,s),(a,k)] conj(U[(u,s),(b,l)])`` is one matrix product ``x.T @ conj(x)``
    of U grouped by an axis transpose as rows ``s``, columns ``(t, a, k)``.
    """
    shape = tensor.shape
    rest_out = [k for k in range(n_out) if k not in to]
    axes = rest_out + list(to) + [n_out + k for k in _first(frm, len(shape) - n_out)]
    d_to = math.prod(shape[k] for k in to)
    d_from = math.prod(shape[n_out + k] for k in frm)
    x = tensor.transpose(axes).reshape(math.prod(shape[k] for k in rest_out), -1)
    d_k = x.shape[1] // (d_to * d_from)
    # one matrix product: m[(t, a, k), (u, b, l)] is the sum over s
    m = (x.T @ x.conj()).reshape(d_to, d_from, d_k, d_to, d_from, d_k)
    return m.transpose(0, 3, 1, 2, 4, 5)


def _signalling_terms(u: "UnitaryChannel", frm: Sequence[str], to: Sequence[str]) -> np.ndarray:
    """``_wire_products`` from the named ``frm`` inputs to the ``to`` outputs.

    No-signalling asks it to equal delta_ab times its a=b=0 slice, so its
    deviation is ``_delta_gap(m, [(2, 4)])``.
    """
    tensor = _as_tensor(u.matrix, u.output.dims, u.input.dims)
    return _wire_products(tensor, len(u.output), u.output.layout(to)[0], u.input.layout(frm)[0])


def _delta_gap(
    x: np.ndarray, pairs: Sequence[tuple[int, int]], absx: Optional[np.ndarray] = None
) -> np.ndarray:
    """Entrywise ``|x - delta x0|``, in the layout of ``x``: the one quantum deviation.

    Each pair names two axes of ``x`` of equal dim; ``x0`` is ``x`` at digit 0
    on every paired axis. The gap is ``|x|`` off the diagonal of any pair and
    ``|x - x0|`` on the diagonal of all, written through a view of the gap.
    This full reading serves the verdicts of one pair or one probe, the
    witnesses and ``replay_witness``. ``absx``, if given, is ``|x|`` already
    taken; it is copied, never overwritten, so a stack's passes can share it.
    """
    gap = np.abs(x) if absx is None else absx.copy()
    sub = list(range(x.ndim))
    for a, b in pairs:
        sub[b] = sub[a]
    out = list(dict.fromkeys(sub))  # each diagonal axis where its pair first appears
    diag = np.einsum(gap, sub, out)  # a writeable view
    x0 = _at_zero(x, [a for pair in pairs for a in pair])
    diag[...] = np.abs(np.einsum(x, sub, out) - np.einsum(x0, sub, out))
    return gap


def _pair_gap_max(x: np.ndarray, absx: np.ndarray, a: int, b: int) -> np.ndarray:
    """Per row of a stack, the max of ``_delta_gap(x, [(a, b)])``, with no gap formed.

    The row-max reading of the deviation, for the passes that test every wire
    of a stack: ``absx`` is ``|x|``, taken once per stack and shared by its
    wires. ``x`` and ``absx`` are C-contiguous with the row axis first, and
    ``a < b`` are axes of equal dim ``d``. On the view ``(rows, L, d, M, d,
    R)``, an off-diagonal block ``(i, j)`` reads its max off ``absx`` and a
    diagonal block ``j >= 1`` is ``|x_jj - x_00|``, the same floats as the
    full gap; max is exact, so the result equals its row max bit for bit.
    """
    s = x.shape
    view = (s[0], math.prod(s[1:a]), s[a], math.prod(s[a + 1 : b]), s[b], -1)
    x, absx = x.reshape(view), absx.reshape(view)
    out = np.zeros(s[0])
    for i in range(s[a]):
        for j in range(s[a]):
            if i != j:
                block = absx[:, :, i, :, j, :]
            elif j:
                block = np.abs(x[:, :, j, :, j, :] - x[:, :, 0, :, 0, :])
            else:
                continue  # the digit-0 block is its own reference: a zero gap
            np.maximum(out, block.max(axis=(1, 2, 3)), out=out)
    return out


def _dim_chunks(
    dims: Sequence[int], entry_bytes: Callable[[int], int]
) -> Iterator[tuple[int, list[int]]]:
    """Positions of ``dims`` grouped by equal dim, a chunk at a time, as ``(dim, positions)``.

    ``entry_bytes(dim)`` is the working set of one position; a chunk holds as
    many as fit in ``_CHECK_CHUNK_BYTES``, and at least one.
    """
    by_dim: dict[int, list[int]] = {}
    for k, dim in enumerate(dims):
        by_dim.setdefault(dim, []).append(k)
    for dim, wires in by_dim.items():
        chunk = max(1, _CHECK_CHUNK_BYTES // entry_bytes(dim))
        for lo in range(0, len(wires), chunk):
            yield dim, wires[lo : lo + chunk]


def _signals(m: np.ndarray, tol: float) -> bool:
    """The signalling verdict on ``m``, the ``_wire_products`` of one (from, to) pair.

    A trivial block on either side (``to`` on axis 0, ``from`` on axis 2) never signals.
    """
    return m.shape[0] > 1 and m.shape[2] > 1 and bool(_delta_gap(m, [(2, 4)]).max() > tol)


def _unitarity_defects(m: np.ndarray) -> np.ndarray:
    """``max |M+ M - 1|`` of one matrix, or of each matrix in a stack: the unitarity certificate."""
    return np.abs(np.swapaxes(m.conj(), -1, -2) @ m - np.eye(m.shape[-1])).max(axis=(-2, -1))


def _certify_unitary(m: np.ndarray, atol: float) -> None:
    """The channel certificate, on one matrix or on each of a stack."""
    for defect in np.ravel(_unitarity_defects(m)):
        if defect > atol:
            raise SpecError(f"unitarity certificate failed: max |U+U - I| = {defect:.3e}")


def _identity_factor(
    grid: np.ndarray, pairs: Sequence[tuple[int, int]], gap_max: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a stack of matrices: whether it is ``w x 1`` on ``pairs``, and ``w``.

    The quantum identity-factor kernel. ``grid[p]`` has one axis per output
    wire, then one per input wire; each pair is the (output axis, input axis)
    of one wire, as axes of ``grid``. ``gap_max`` is the per-row max of the
    pairs' deviation, read in full (``_delta_gap``) for one probe or off the
    shared modulus (``_pair_gap_max``) for a stack's one-wire sweep. ``w``,
    the row at digit 0 on every pair, is a stack of square matrices. A row
    passes when its gap max is within ``tol`` and ``w`` is unitary within
    ``max(tol, DEFAULT_TOL)``.
    """
    ok = gap_max <= tol
    w = _at_zero(grid, [a for pair in pairs for a in pair])
    side = math.isqrt(w[0].size)  # a unitary's factor is square
    w = w.reshape(len(grid), side, side)
    if ok.any():
        ok[ok] = _unitarity_defects(w[ok]) <= max(tol, DEFAULT_TOL)
    return ok, w


@dataclass(frozen=True, eq=False)
class UnitaryChannel:
    """A unitarity-certified complex matrix typed by input/output systems."""

    input: CompositeSystem
    output: CompositeSystem
    matrix: np.ndarray
    atol: float = field(default=DEFAULT_TOL, repr=False)

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        n = self.input.total_dim
        if self.output.total_dim != n:
            raise SpecError(
                f"reversible channel needs equal dimensions, got {n} -> {self.output.total_dim}"
            )
        if m.shape != (n, n):
            raise SpecError(f"matrix shape {m.shape} does not match joint dimension {n}")
        _certify_unitary(m, self.atol)

    # -- evaluation ----------------------------------------------------------

    def apply(self, rho: "DensityOperator") -> "DensityOperator":
        if rho.system.dims != self.input.dims:
            raise SpecError("state system does not match channel input")
        return DensityOperator(self.output, self.matrix @ rho.matrix @ self.matrix.conj().T)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def identity(cls, system: CompositeSystem) -> "UnitaryChannel":
        return cls(system, system, np.eye(system.total_dim))

    @classmethod
    def from_index_permutation(
        cls, input: CompositeSystem, output: CompositeSystem, table: Sequence[int]
    ) -> "UnitaryChannel":
        """The unitary sending basis state ``x`` to basis state ``table[x]``."""
        n = input.total_dim
        m = np.zeros((n, n))
        m[table, np.arange(n)] = 1.0
        return cls(input, output, m)

    # -- algebra -------------------------------------------------------------

    def compose(self, first: "UnitaryChannel") -> "UnitaryChannel":
        """``self  first``: run ``first``, then ``self``."""
        if first.output.dims != self.input.dims:
            raise SpecError(
                f"cannot compose: inner output dims {first.output.dims} != outer input dims {self.input.dims}"
            )
        return UnitaryChannel(first.input, self.output, self.matrix @ first.matrix)

    def tensor(self, other: "UnitaryChannel") -> "UnitaryChannel":
        return UnitaryChannel(
            self.input.concat(other.input),
            self.output.concat(other.output),
            np.kron(self.matrix, other.matrix),
        )

    def invert(self) -> "UnitaryChannel":
        """The inverse channel; for a unitary this is the adjoint."""
        return UnitaryChannel(self.output, self.input, self.matrix.conj().T)

    def with_names(
        self,
        input_names: Optional[Sequence[str]] = None,
        output_names: Optional[Sequence[str]] = None,
    ) -> "UnitaryChannel":
        inp, out = self.input, self.output
        if input_names is not None:
            inp = composite(*zip(input_names, inp.dims))
        if output_names is not None:
            out = composite(*zip(output_names, out.dims))
        return UnitaryChannel(inp, out, self.matrix)

    # -- causal-structure primitives -----------------------------------------

    def signals(
        self, from_in: Iterable[str], to_out: Iterable[str], tol: float = DEFAULT_TOL
    ) -> bool:
        """True iff the ``to_out`` marginal can depend on the ``from_in`` factor.

        No-signalling means the map X -> Tr_rest[U X U+] annihilates the
        traceless part of the ``from_in`` factor. Concretely, on matrix units
        E_ab (from factor) and E_kl (its complement), the kept marginal of
        U (E_ab x E_kl) U+ must equal delta_ab times the a=b=0 reference,
        entrywise within ``tol``. The names are read once, by ``layout``,
        which rejects unknown and duplicate names.
        """
        return _signals(_signalling_terms(self, tuple(from_in), tuple(to_out)), tol)

    def wire_signalling(self, tol: float = DEFAULT_TOL) -> np.ndarray:
        """The single-wire signalling relation: ``r[i, t]`` iff input ``i`` signals to output ``t``.

        Entry ``[i, t]`` is ``signals([input i], [output t], tol)``, decided in
        one pass. Per output wire ``t``, one ``_wire_products`` with an empty
        ``from`` block is ``U+ (E_tu x 1) U`` on every input digit; the pair
        ``(i, t)`` is that array with input ``i`` as its axis pair. Outputs of
        equal dim share a C-contiguous stack, taken a chunk at a time; its
        modulus is taken once, and each input's ``_pair_gap_max`` reads its
        row maxima off it. A dim-1 wire never signals.
        """
        tensor = _as_tensor(self.matrix, self.output.dims, self.input.dims)
        n_in, n_out = len(self.input), len(self.output)
        rel = np.zeros((n_in, n_out), dtype=bool)
        live = [i for i, dim in enumerate(self.input.dims) if dim > 1]
        d_in = self.input.total_dim
        for dim, part in _dim_chunks(self.output.dims, lambda d: 64 * (d * d_in) ** 2):
            if dim == 1:
                continue
            # stack[p, t, u, x, x'], one axis per input wire in x and in x', C-contiguous
            stack = np.array([_wire_products(tensor, n_out, (k,), ()) for k in part])
            stack = stack.reshape((len(part), dim, dim) + self.input.dims * 2)
            absx = np.abs(stack)
            for i in live:
                rel[i, part] = _pair_gap_max(stack, absx, 3 + i, 3 + n_in + i) > tol
        return rel

    def factors_as_identity(
        self, idle: Iterable[str], tol: float = DEFAULT_TOL
    ) -> Optional["UnitaryChannel"]:
        """Factor ``W`` with the channel equal to ``W`` tensor identity-on-``idle``.

        Wires are paired by name between input and output. The candidate is the
        idle-index-zero block; it is returned iff the full matrix matches the
        block-tensor-identity pattern within ``tol`` and the block certifies as
        unitary. An exact tensor factor is recovered exactly.
        """
        idle = tuple(idle)
        in_pos, out_pos = _paired_layout(self.input, self.output, idle)
        n_out = len(self.output)
        grid = self.matrix.reshape((1,) + self.output.dims + self.input.dims)
        pairs = [(1 + o, 1 + n_out + i) for o, i in zip(out_pos, in_pos)]
        gap = _delta_gap(grid, pairs)
        ok, w = _identity_factor(grid, pairs, gap.reshape(1, -1).max(axis=1), tol)
        if not ok[0]:
            return None
        w_in = self.input.restrict(self.input.complement(idle))
        w_out = self.output.restrict(self.output.complement(idle))
        return UnitaryChannel(w_in, w_out, w[0], atol=max(tol, DEFAULT_TOL))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A positive semidefinite unit-trace matrix on a composite system."""

    system: CompositeSystem
    matrix: np.ndarray
    atol: float = field(default=DEFAULT_TOL, repr=False)

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        n = self.system.total_dim
        if m.shape != (n, n):
            raise SpecError(f"state shape {m.shape} does not match system dimension {n}")
        if np.max(np.abs(m - m.conj().T)) > self.atol:
            raise SpecError("state is not Hermitian within tolerance")
        if abs(np.trace(m) - 1.0) > self.atol:
            raise SpecError(f"state trace {np.trace(m):.6f} is not 1 within tolerance")
        if np.min(np.linalg.eigvalsh((m + m.conj().T) / 2)) < -self.atol:
            raise SpecError("state has a negative eigenvalue beyond tolerance")

    @classmethod
    def computational(cls, system: CompositeSystem, values: Sequence[int]) -> "DensityOperator":
        """The basis state |values><values|."""
        idx = system.flatten(values)
        m = np.zeros((system.total_dim, system.total_dim))
        m[idx, idx] = 1.0
        return cls(system, m)

    @classmethod
    def from_vector(cls, system: CompositeSystem, vec: Sequence[complex]) -> "DensityOperator":
        v = np.asarray(vec, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(system, np.outer(v, v.conj()))

    def partial_trace(self, keep: Iterable[str]) -> "DensityOperator":
        """Trace out every wire not named in ``keep``; kept wires stay in system order."""
        keep = tuple(keep)
        self.system.subset_positions(keep)
        # floor relaxed to 1e-8: repeated arithmetic may nudge eigenvalues
        return DensityOperator(
            self.system.restrict(keep),
            _partial_trace(self.matrix, self.system, keep),
            atol=max(self.atol, 1e-8),
        )


@dataclass(frozen=True, eq=False)
class StateMap:
    """A channel in evaluator form: a closure acting on density matrices.

    Used for the non-reversible legs of a memory decomposition, where a
    unitary representation does not exist.
    """

    input: CompositeSystem
    output: CompositeSystem
    evaluate: Callable[[np.ndarray], np.ndarray]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.input.total_dim,) * 2:
            raise SpecError("state shape does not match the map's input system")
        return self.evaluate(rho)


# -- gate constructors ---------------------------------------------------------


def cnot(
    names: Sequence[str] = ("A", "B"), out_names: Optional[Sequence[str]] = None
) -> UnitaryChannel:
    """Two-qubit controlled-NOT, control on the first wire."""
    return from_classical(classical.cnot(2, names, out_names))


def swap_gate(
    dim: int = 2,
    names: Sequence[str] = ("A", "B"),
    out_names: Optional[Sequence[str]] = None,
) -> UnitaryChannel:
    return from_classical(classical.swap_gate(dim, names, out_names))


def hadamard(name: str = "A", out_name: Optional[str] = None) -> UnitaryChannel:
    inp = composite((name, 2))
    out = composite((out_name, 2)) if out_name else inp
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return UnitaryChannel(inp, out, h)


def from_classical(channel) -> UnitaryChannel:
    """Lift a reversible classical channel to the permutation unitary with the same table."""
    return UnitaryChannel.from_index_permutation(channel.input, channel.output, channel.table)


def random_unitary(
    system: CompositeSystem,
    rng: np.random.Generator,
    out_system: Optional[CompositeSystem] = None,
) -> UnitaryChannel:
    """Haar-ish random unitary from the QR decomposition of a complex Gaussian matrix."""
    n = system.total_dim
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return UnitaryChannel(system, out_system or system, q)
