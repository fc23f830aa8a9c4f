"""Reversible quantum channels as unitaries over tensor-product spaces.

Matrices are dense, row-major, and indexed by big-endian joint indices, so
``np.kron`` agrees with wire concatenation. Reversibility is unitarity: the
inverse of a channel is its adjoint. Channel certificates are absolute
entrywise within ``DEFAULT_TOL``; the intended scale is joint dimension <= 64.

Every quantum verdict reads one number per (input block, output wire): the
normalised residual ``δ`` against ``1 ⊗ M`` on an axis pair (``_residual``);
a block of wires is reached iff one of its wires is. Its probe and
signalling readings are one commutator, compared as values
(``_same_reading``), off one Gram kernel (``_heisenberg``) on ``U`` and on
``Uᵀ``. ``_delta_gap`` only locates a witness entry. Every factor on a
block of wires comes from one kernel, ``_identity_factor``:
``W = Tr_idle / d_idle`` on a grid's own axes, the residual formed in place,
and ``W`` certified, a failure being a ``ConsistencyError``.

A matrix with no nonzero imaginary part (a permutation, a Hadamard, any
real orthogonal matrix) is stored and computed in float64, every other in
complex128. The code after the constructor is dtype-generic numpy, so a real
unitary's products, certificates and ``δ`` run in real arithmetic, with no
second code path; working-set estimates read the entry size off the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import classical
from .classical import _at_zero
from .errors import ConsistencyError, SpecError
from .systems import CompositeSystem, _paired_layout, composite

__all__ = [
    "DEFAULT_TOL",
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
# the influence relation and the inverse check of ``causal`` (about four
# arrays the size of one stacked entry each)
_CHECK_CHUNK_BYTES = 1 << 20

# two readings of one δ agree when they differ by at most _SAME_REL of the
# larger plus _SAME_FLOOR; rounding puts a zero δ near 1e-15
_SAME_REL, _SAME_FLOOR = 1e-12, 1e-12


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
    t = matrix.reshape(out_sys.dims + in_sys.dims).transpose(axes)
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


def _heisenberg(
    matrix: np.ndarray, out_dims: Sequence[int], in_dims: Sequence[int], blocks: Sequence[tuple]
) -> np.ndarray:
    """``sum_b V[z', (c, b)] conj(V[z, (c', b)])`` at each input block ``c`` of ``V = matrix``.

    Blocks are tuples of input positions, all of the same dims; ``b`` is the
    rest inputs. One batched product, a C-contiguous stack ``[p, c', z'…, c,
    z…]``, one axis per output wire in ``z'`` and ``z``. On ``U`` it is the
    probe process; on ``Uᵀ`` at output blocks, the Heisenberg image ``U+ (E x
    1) U`` that the signalling terms read.
    """
    n_in, d_out = len(in_dims), math.prod(out_dims)
    d_a = math.prod(in_dims[k] for k in blocks[0])
    t = np.moveaxis(matrix.reshape((d_out,) + tuple(in_dims)), 0, -1)
    # rows (c, z), columns b
    grouped = [t.transpose(_first([*b, n_in], n_in + 1)) for b in blocks]
    x = np.stack([g.reshape(d_a * d_out, -1) for g in grouped])
    # one batched product: m[p, c, z', c', z] is the sum over b
    m = (x @ x.conj().transpose(0, 2, 1)).reshape(len(blocks), d_a, d_out, d_a, d_out)
    grid = (len(blocks), d_a) + tuple(out_dims) + (d_a,) + tuple(out_dims)
    return np.ascontiguousarray(m.transpose(0, 3, 2, 1, 4)).reshape(grid)


def _signalling_terms(u: "UnitaryChannel", frm: Sequence[str], to: Sequence[str]) -> np.ndarray:
    """``m[t, u, a, k, b, l] = sum_s U[(t,s),(a,k)] conj(U[(u,s),(b,l)])``: ``_heisenberg``
    on ``Uᵀ`` at the block ``to``, regrouped with the ``frm`` inputs first.

    No-signalling asks it to be ``1 ⊗ M`` on the ``from`` axis pair ``(2,
    4)``; ``_signalling_delta`` reads its ``δ``.
    """
    (to_pos, _), (frm_pos, frm_dims) = u.output.layout(to), u.input.layout(frm)
    n_in, d_from = len(u.input), math.prod(frm_dims)
    g = _heisenberg(u.matrix.T, u.input.dims, u.output.dims, [to_pos])[0]
    order = [1 + k for k in _first(frm_pos, n_in)]
    g = g.transpose([n_in + 1, 0] + order + [n_in + 1 + k for k in order])
    d_to, d_k = len(g), u.input.total_dim // d_from
    return g.reshape(d_to, d_to, d_from, d_k, d_from, d_k)


def _delta_gap(x: np.ndarray, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """Entrywise ``|x - delta x0|``, ``x0`` being ``x`` at digit 0 on every paired axis.

    ``|x|`` off the diagonal of any pair and ``|x - x0|`` on the diagonal of
    all, written through a view of the gap. It decides nothing: its largest
    entry is the quantum witness.
    """
    gap = np.abs(x)
    sub = list(range(x.ndim))
    for a, b in pairs:
        sub[b] = sub[a]
    out = list(dict.fromkeys(sub))  # each diagonal axis where its pair first appears
    diag = np.einsum(gap, sub, out)  # a writeable view
    x0 = _at_zero(x, [a for pair in pairs for a in pair])
    diag[...] = np.abs(np.einsum(x, sub, out) - np.einsum(x0, sub, out))
    return gap


def _squares(x: np.ndarray) -> np.ndarray:
    out = np.abs(x)
    return np.square(out, out=out)  # in place: no second array the size of x


def _square_sums(x: np.ndarray) -> np.ndarray:
    """``sum |x|²`` per row of a C-contiguous real or complex stack."""
    flat = x.reshape(len(x), -1).view(float)
    return np.einsum("ij,ij->i", flat, flat)


def _off_diagonal(sqv: np.ndarray) -> np.ndarray:
    """Per row of ``|x|²`` viewed as ``(rows, L, d, M, d, R)``: the off-diagonal blocks' sum."""
    rows, _, d, m, _, r = sqv.shape
    blocks = sqv.reshape(rows, sqv.shape[1], -1).sum(axis=1).reshape(rows, d, m, d, r)
    blocks = blocks.sum(axis=(2, 4))
    np.einsum("pii->pi", blocks)[...] = 0.0  # a writeable view of the diagonal
    return blocks.sum(axis=(1, 2))


def _residual(xv: np.ndarray, sqv: np.ndarray) -> np.ndarray:
    """Per row: ``‖x − 1 ⊗ M‖²_F`` on one axis pair, ``M`` the mean of the diagonal blocks.

    ``xv`` is viewed as ``(rows, L, d, M, d, R)`` and ``sqv`` is ``|xv|²``.
    Never ``‖x‖² − ‖Tr x‖²/d``, whose cancellation error would swamp a
    residual at the tolerance: the off-diagonal squares, plus ``sum_j ‖x_jj −
    M‖² = sum_j ‖y_j‖² − ‖sum_j y_j‖²/d`` for ``y_j = x_jj − x_last``, whose
    second term is at most ``(d−1)/d`` of its first (Cauchy–Schwarz), so the
    relative rounding error stays below about ``2d`` machine epsilons.
    """
    diag = np.einsum("plimir->pilmr", xv)
    y = diag[:, :-1] - diag[:, -1:]
    return _off_diagonal(sqv) + _square_sums(y) - _square_sums(y.sum(axis=1)) / xv.shape[2]


def _normalised(r2: np.ndarray, entries: int) -> np.ndarray:
    """``δ`` in [0, 1): ``‖R‖²/(d_A D)`` on a probe row, ``‖R‖²/(d_t D)`` on signalling terms."""
    return np.sqrt(r2 / math.sqrt(entries))


def _pair_deltas(x: np.ndarray, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """``δ[p, j]`` of row ``p`` of a C-contiguous stack on pair ``j``, off one shared ``|x|²``."""
    sq, s = _squares(x), x.shape
    out = np.zeros((len(x), len(pairs)))
    for j, (a, b) in enumerate(pairs):
        view = (s[0], math.prod(s[1:a]), s[a], math.prod(s[a + 1 : b]), s[b], -1)
        out[:, j] = _normalised(_residual(x.reshape(view), sq.reshape(view)), x[0].size)
    return out


def _same_reading(x, y) -> bool:
    """Whether two readings of the same ``δ`` agree up to rounding."""
    return bool(np.all(np.abs(np.subtract(x, y)) <= _SAME_REL * np.maximum(x, y) + _SAME_FLOOR))


def _factor_atol(eps: float, atol: float) -> float:
    """The unitarity bound of ``W`` for ``U = W ⊗ 1 + R``, ``‖R‖_F = eps``, ``U`` within ``atol``.

    ``(W+W − 1) ⊗ 1 = (U+U − 1) − U+R − R+U + R+R``."""
    return atol + eps * (2.0 + eps)


def _signalling_delta(m: np.ndarray) -> float:
    """``δ`` of one (from, to) pair, off ``m`` in its C-contiguous layout ``(t, a, k, u, b, l)``."""
    x = np.ascontiguousarray(m.transpose(0, 2, 3, 1, 4, 5))[None]
    return float(_pair_deltas(x, [(2, 5)])[0, 0])


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


def _unitarity_defects(m: np.ndarray) -> np.ndarray:
    """``max |M+ M - 1|`` of one matrix, or of each matrix in a stack: the unitarity certificate."""
    return np.abs(np.swapaxes(m.conj(), -1, -2) @ m - np.eye(m.shape[-1])).max(axis=(-2, -1))


def _certify_unitary(m: np.ndarray, atol: float) -> None:
    """The channel certificate, on one matrix or on each of a stack."""
    with np.errstate(invalid="ignore"):  # an infinite entry reads as a NaN defect
        defects = np.ravel(_unitarity_defects(m))
    for defect in defects:
        if not defect <= atol:  # NaN too
            raise SpecError(f"unitarity certificate failed: max |U+U - I| = {defect:.3e}")


def _paired_grid(u: "UnitaryChannel", idle: tuple[str, ...]):
    """``u`` as a grid, one axis per wire (outputs, then inputs), with its ``idle`` axis pairs."""
    in_pos, out_pos = _paired_layout(u.input, u.output, idle)
    n_out = len(u.output)
    grid = u.matrix.reshape(u.output.dims + u.input.dims)
    return grid, [(o, n_out + i) for o, i in zip(out_pos, in_pos)]


def _identity_factor(
    x: np.ndarray, pairs: Sequence[tuple[int, int]], atol: float, bound: Optional[float] = None
) -> tuple[float, float, np.ndarray]:
    """One grid ``x`` against ``1 ⊗ W`` on its axis ``pairs``: ``(δ, ε, W)``, ``W`` certified.

    ``W = Tr_pairs(x) / d`` is an einsum trace on the grid's own axes, and the
    residual ``x − 1 ⊗ W`` is written into one copy of ``x`` through a
    writeable view of its diagonal, so ``ε = ‖x − 1 ⊗ W‖_F`` is never a
    difference of squares; an exact tensor factor is recovered exactly.
    ``W`` is returned as a matrix. For ``x`` unitary within ``atol``,
    ``W`` is unitary within ``_factor_atol``; with ``bound``, the root sum of
    squares of the pairs' own ``δ``, the joint ``δ`` is at most it (``1 −
    P₁P₂ = (1 − P₁) + P₁(1 − P₂)`` is an orthogonal split). Both are
    theorems, so a failure is a bug.
    """
    sub = list(range(x.ndim))
    for a, b in pairs:
        sub[b] = a
    paired = [a for a, _ in pairs]
    kept = [k for k in sub if sub.count(k) == 1]
    w = np.einsum(x, sub, kept) / math.prod(x.shape[a] for a in paired)
    r = x.copy()
    np.einsum(r, sub, kept + paired)[...] -= w.reshape(w.shape + (1,) * len(pairs))
    eps = math.sqrt(np.vdot(r, r).real)
    delta = float(_normalised(eps * eps, x.size))
    # rows: the unpaired axes of the output side, the leading axes of x whose
    # dims multiply to sqrt(x.size)
    n_rows = next(k for k in range(x.ndim + 1) if math.prod(x.shape[:k]) ** 2 >= x.size)
    w = w.reshape(math.prod(x.shape[k] for k in kept if k < n_rows), -1)
    if not (
        (bound is None or delta <= bound * (1 + _SAME_REL) + _SAME_FLOOR)
        and _unitarity_defects(w) <= _factor_atol(eps, atol)
    ):
        raise ConsistencyError("per-wire idle factors did not combine into a joint factorization")
    return delta, eps, w


@dataclass(frozen=True, eq=False)
class UnitaryChannel:
    """A unitarity-certified matrix typed by input/output systems.

    The matrix is stored as float64 when no entry has a nonzero imaginary
    part, and as complex128 otherwise; everything after the constructor is
    dtype-generic, so a real unitary is computed in real arithmetic.
    """

    input: CompositeSystem
    output: CompositeSystem
    matrix: np.ndarray
    atol: float = field(default=DEFAULT_TOL, repr=False)

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if not m.imag.any():  # -0.0 is zero; a NaN is not, and fails the certificate
            m = m.real.copy()
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

        No-signalling means the kept marginals of U (E_ab x E_kl) U+ are
        ``1 ⊗ M`` on the (a, b) pair of the ``from_in`` factor. The Heisenberg
        image of a block's operators is generated by its wires', so a block is
        signalled iff one of its wires is: it signals iff some ``to_out``
        wire's ``δ`` exceeds ``tol``. ``layout`` rejects unknown and duplicate names.
        """
        frm, to = tuple(from_in), tuple(to_out)
        self.input.layout(frm), self.output.layout(to)
        return any(_signalling_delta(_signalling_terms(self, frm, (t,))) > tol for t in to)

    def wire_signalling(self, tol: float = DEFAULT_TOL) -> np.ndarray:
        """``r[i, t]`` iff input ``i`` signals to output ``t``: ``signals([i], [t], tol)``, in one
        pass of the Gram kernel on ``Uᵀ`` (``_signalling_deltas``)."""
        return _signalling_deltas(self) > tol

    def factors_as_identity(
        self, idle: Iterable[str], tol: float = DEFAULT_TOL
    ) -> Optional["UnitaryChannel"]:
        """Factor ``W`` with the channel equal to ``W`` tensor identity-on-``idle``.

        Wires are paired by name. ``W = Tr_idle / d_idle`` is returned iff
        each idle wire's ``δ`` against identity is within ``tol``: a channel
        commuting with each wire's operators commutes with the algebra they
        generate, so it factors on all of them at once (``_identity_factor``).
        """
        idle = tuple(idle)
        grid, pairs = _paired_grid(self, idle)
        deltas = _pair_deltas(grid[None], [(a + 1, b + 1) for a, b in pairs])[0]
        if np.any(deltas > tol):
            return None
        _, eps, w = _identity_factor(grid, pairs, self.atol, np.linalg.norm(deltas))
        w_in = self.input.restrict(self.input.complement(idle))
        w_out = self.output.restrict(self.output.complement(idle))
        return UnitaryChannel(w_in, w_out, w, atol=_factor_atol(eps, self.atol))


def _signalling_deltas(u: UnitaryChannel) -> np.ndarray:
    """``δ[i, t]`` of every wire pair, off ``U+ (E_tu x 1) U``: ``_heisenberg`` on ``Uᵀ``, one
    block per output wire, equal dims in one stack, read on the probe pass's pairs."""
    n, d_in = len(u.input), u.input.total_dim
    out, pairs = np.zeros((n, len(u.output))), [(k + 2, n + k + 3) for k in range(n)]
    # working set: about four arrays of u's entry type the size of the stack
    entry = 4 * u.matrix.itemsize
    for dim, part in _dim_chunks(u.output.dims, lambda d: entry * (d * d_in) ** 2):
        if dim == 1:
            continue
        # stack[p, u, x'…, t, x…], one axis per input wire in x' and in x
        stack = _heisenberg(u.matrix.T, u.input.dims, u.output.dims, [(k,) for k in part])
        out[:, part] = _pair_deltas(stack, pairs).T
    return out


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
    return UnitaryChannel.from_index_permutation(channel.input, channel.output, channel._arr)


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
