"""Reversible quantum channels as unitaries over tensor-product spaces.

Matrices are dense, row-major, and indexed by big-endian joint indices, so
``np.kron`` agrees with wire concatenation. Reversibility is unitarity: the
inverse of a channel is its adjoint. Channel certificates are absolute
entrywise within ``DEFAULT_TOL``; the intended scale is joint dimension <= 64.

Every quantum verdict reads one number per (input block, output wire): the
normalised residual ``δ`` against ``1 ⊗ M`` on an axis pair (``_residual``);
a block of wires is reached iff one of its wires is. Its probe and
signalling readings are one commutator, the Gram kernel (``_heisenberg``) on
``U`` and on ``Uᵀ``; ``_gram_deltas`` forms both for every wire pair in one
loop, one product and one sweep per chunk, to be compared as values
(``_same_reading``). ``_delta_gap`` only locates a witness entry. Every
factor on a block of wires comes from one kernel, ``_identity_factor``: ``W
= Tr_idle / d_idle`` on a grid's own axes, the residual formed in place, and
``W`` certified, a failure being a ``ConsistencyError``. A matrix with no
nonzero imaginary part is stored and computed in float64, every other in
complex128, by the same dtype-generic code; working-set estimates read the
entry size off the matrix. ``UnitaryChannel`` owns the quantum kernels of
``causal``'s definitions, as the protocol steps listed there: the probe and
its pass on the Gram kernel, the memory legs (``V``, off one regroup of
``U``, and the probe's factor ``W``, returned as the matrices checked as one
operator identity, ``(W x 1)(1 x V) = |0> x U``), the premise, the inverse
check and the witness. ``_identity_factor`` is the one partial trace.
``from_classical`` is the one lift of a classical channel: the permutation
unitary with its table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from . import classical
from .classical import _at_zero, _dim_chunks, _fresh_copies
from .errors import ConsistencyError, SpecError
from .systems import CompositeSystem, _paired_layout, composite

__all__ = [
    "DEFAULT_TOL",
    "UnitaryChannel",
    "cnot",
    "from_classical",
    "hadamard",
    "random_unitary",
    "swap_gate",
]

DEFAULT_TOL = 1e-9

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


def _heisenberg(u: "UnitaryChannel", blocks: Sequence[tuple[int, tuple[int, ...]]]) -> np.ndarray:
    """``sum_b V[z', (c, b)] conj(V[z, (c', b)])`` at each block ``(side, c)``, all of one shape.

    Side 0 is the probe process of ``V = U`` at input positions ``c``; side 1
    that of ``V = Uᵀ`` at output positions ``c``, the Heisenberg image ``U+ (E
    x 1) U`` the signalling terms read. ``b`` is the rest of ``V``'s inputs.
    One batched product, a C-contiguous stack ``[p, c', z'…, c, z…]``, one
    axis per output wire of ``V`` in ``z'`` and ``z``.
    """
    n, (side, block) = len(u.matrix), blocks[0]
    # V as a tensor [inputs…, z] on each side, a view of U
    t = u.matrix.T.reshape(u.input.dims + (n,)), u.matrix.reshape(u.output.dims + (n,))
    v_out, d_a = t[1 - side].shape[:-1], math.prod(t[side].shape[k] for k in block)
    # rows (c, z), columns b: each block's transposed view copied once into its row
    x = np.empty((len(blocks), d_a * n, n // d_a), dtype=u.matrix.dtype)
    for row, (s, c) in zip(x, blocks):
        g = t[s].transpose(_first([*c, t[s].ndim - 1], t[s].ndim))
        row.reshape(g.shape)[...] = g
    # one batched product: m[p, c, z', c', z] is the sum over b
    m = (x @ x.conj().transpose(0, 2, 1)).reshape(len(blocks), d_a, n, d_a, n)
    grid = (len(blocks), d_a) + v_out + (d_a,) + v_out
    return np.ascontiguousarray(m.transpose(0, 3, 2, 1, 4)).reshape(grid)


def _signalling_terms(u: "UnitaryChannel", frm: Sequence[str], to: Sequence[str]) -> np.ndarray:
    """``m[t, u, a, k, b, l] = sum_s U[(t,s),(a,k)] conj(U[(u,s),(b,l)])``: ``_heisenberg``
    on ``Uᵀ`` at the block ``to``, regrouped with the ``frm`` inputs first.

    No-signalling asks it to be ``1 ⊗ M`` on the ``from`` axis pair ``(2,
    4)``; ``_signalling_delta`` reads its ``δ``.
    """
    (to_pos, _), (frm_pos, frm_dims) = u.output.layout(to), u.input.layout(frm)
    n_in, d_from = len(u.input), math.prod(frm_dims)
    g = _heisenberg(u, [(1, to_pos)])[0]
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


def _one_reading(probe, signalling) -> None:
    """The probe and signalling readings of the same ``δ`` must agree (``_same_reading``)."""
    if not _same_reading(probe, signalling):
        raise ConsistencyError("the probe and signalling readings of a quantum delta differ")


def _wire_deltas(stack: np.ndarray) -> np.ndarray:
    """``δ[p, k]`` of each output wire ``k`` of ``V`` on each row of a ``_heisenberg``
    stack ``[p, c', z'…, c, z…]``: the axis pair of ``z'_k`` and ``z_k``."""
    n = (stack.ndim - 3) // 2
    return _pair_deltas(stack, [(k + 2, n + k + 3) for k in range(n)])


def _factor_atol(eps: float, atol: float) -> float:
    """The unitarity bound of ``W`` for ``U = W ⊗ 1 + R``, ``‖R‖_F = eps``, ``U`` within ``atol``.

    ``(W+W − 1) ⊗ 1 = (U+U − 1) − U+R − R+U + R+R``. Dropping the ``eps²``
    term would change no check, since ``atol + 2·eps`` also holds. With
    ``W = Tr_idle(U) / d``, ``d`` the idle dimension, ``Tr_idle R = 0``, so
    ``W+W − 1 = Tr_idle(U+U − 1) / d − Tr_idle(R+R) / d``. The first term is
    an average of entries of ``U+U − 1``; the second is positive with trace
    ``eps²``, so no entry exceeds that. Hence ``max |W+W − 1| ≤ atol + eps²/d``,
    at most ``atol + 2·eps`` while ``eps ≤ 2d``. Past that, ``2·eps > 4``,
    while ``W`` is an average of blocks of ``U``, so ``‖W‖² ≤ ‖U‖² ≤ 1 + D·atol``
    (``D`` the dim of ``U``; ``D·atol < 4`` at any dim a dense matrix reaches)
    and ``max |W+W − 1| ≤ max(1, D·atol)``. The memory check needs only
    ``eps`` plus the certificate (``_verify_quantum_memory``).
    """
    return atol + eps * (2.0 + eps)


def _signalling_delta(m: np.ndarray) -> float:
    """``δ`` of one (from, to) pair, off ``m`` in the layout ``(t, u, a, k, b, l)`` of
    ``_signalling_terms``: ``δ`` does not depend on the order of the other axes. ``m`` is
    copied only where it is a view (a regroup that moves no wire leaves one)."""
    return float(_pair_deltas(np.ascontiguousarray(m)[None], [(3, 5)])[0, 0])


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
        m = np.asarray(self.matrix)
        if m.dtype.kind in "biuf":  # real: one copy, straight to float64
            m = np.array(m, dtype=float, order="C")
        else:
            m = np.array(m, dtype=complex)
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
        return UnitaryChannel(inp, out, self.matrix, atol=self.atol)

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
        """``r[i, t]`` iff input ``i`` signals to output ``t``: ``signals([i], [t], tol)``, off
        the signalling side of the one Gram loop (``_gram_deltas`` on ``Uᵀ``)."""
        return _gram_deltas(self, (1,), tol)[1] > tol

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

    # -- the protocol steps of ``causal`` ------------------------------------

    def _probes(self, blocks: Sequence[tuple[int, ...]]) -> np.ndarray:
        """The probes at the input ``blocks``, one stack: ``_heisenberg`` on side 0."""
        return _heisenberg(self, [(0, b) for b in blocks])

    def _probe(self, frm: tuple[str, ...]) -> tuple[np.ndarray, "UnitaryChannel"]:
        """The probe at ``frm`` as ``(stack of one, channel on (copies of frm, outputs))``."""
        probes = self._probes([self.input.layout(frm)[0]])
        system = _fresh_copies(self, self.input, frm, "_1").concat(self.output)
        return probes, UnitaryChannel(system, system, probes.reshape(system.total_dim, -1))

    def _probe_pass(self, probes: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
        """``idle[p, k]`` of a certified stack, as the Gram loop reads its probe rows."""
        return _probe_joint_test(probes, _wire_deltas(probes), tol)

    def _influence_relation(self, tol: float = DEFAULT_TOL) -> np.ndarray:
        """The probe side of the one Gram loop, ``_gram_deltas``."""
        return ~(_gram_deltas(self, (0,), tol)[0] <= tol)

    def _wire_relations(self, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
        """Both sides of one Gram loop, whose ``δ`` agree: signalling is then influence."""
        probe, signalling = _gram_deltas(self, (0, 1), tol)
        _one_reading(probe, signalling)
        influence = ~(probe <= tol)
        return influence, influence.copy()

    def _hierarchy(self, probe: "UnitaryChannel", frm, to, causal: bool, tol: float = DEFAULT_TOL):
        """``(signalling, witness)``: signalling is ``causal``, once the block's ``δ`` off the
        probe and off the signalling terms ``m`` agree; the legs are built off its factor."""
        m = _signalling_terms(self, frm, to)
        delta, eps, w = _identity_factor(*_paired_grid(probe, to), probe.atol)
        _one_reading(delta, _signalling_delta(m))
        if not causal:
            _quantum_memory(self, frm, to, probe, eps, w)
        return causal, (self._witness(frm, to, m) if causal else None)

    def _memory(self, frm: tuple[str, ...], idle: tuple[str, ...]):
        """The memory form ``(env, v, w, discarded)`` off the factor on ``idle`` of the bare
        probe at ``frm``: no probe pass, since the idle set is given."""
        _, tilde = self._probe(frm)
        _, eps, w = _identity_factor(*_paired_grid(tilde, idle), tilde.atol)
        return _quantum_memory(self, frm, idle, tilde, eps, w)

    def _discard_leaves_rest_alone(self, act, bystander, tol: float = DEFAULT_TOL) -> bool:
        """The signalling terms of ``act`` on ``bystander`` are the identity's within ``tol``."""
        m = _signalling_terms(self, act, bystander)
        d_a = self.input.select(act).total_dim
        d_b = self.input.total_dim // d_a
        req = (
            np.eye(d_a).reshape(1, 1, d_a, 1, d_a, 1)
            * np.eye(d_b).reshape(d_b, 1, 1, d_b, 1, 1)
            * np.eye(d_b).reshape(1, d_b, 1, 1, 1, d_b)
        )
        # on the normalised Frobenius scale of every other quantum verdict
        return bool(_normalised(np.sum(_squares(m - req)), m.size) <= tol)

    def _inverse_nosignalling(self, frm, to, tol: float = DEFAULT_TOL) -> bool:
        """Both CP maps on every matrix unit E_(z1, z2) of the output space at once.

        Outputs are grouped (target t, rest r), inputs (from a, rest b), and
        C feeds a = 0. With p[z1, a, t, r] = sum_b conj(U[z1, (a, b)]) U[(t,
        r), (0, b)], the left side is lhs[(z1, t), (z2, t')] = sum_(a, r) p[z1,
        a, t, r] conj(p[z2, a, t', r]), the right side delta(r1, r2) delta(t1,
        t) delta(t2, t') for z = (t, r). Rows are taken a chunk at a time.
        """
        h = _grouped(self.matrix, self.output, self.input, to, frm)  # [t, r, a, b]
        d_to, d_r, d_a, _ = h.shape
        p = np.tensordot(h.conj(), h[:, :, 0, :], axes=(3, 2))  # [t1, r1, a, t, r]
        x = p.transpose(0, 1, 3, 2, 4).reshape(d_to * d_r * d_to, d_a * d_r)
        rows = np.arange(len(x))  # (t1, r1, t); the columns alike
        r1, diag = rows // d_to % d_r, rows // (d_r * d_to) == rows % d_to
        chunk = max(1, classical._CHECK_CHUNK_BYTES // (x.itemsize * len(x)))
        for lo in range(0, len(x), chunk):
            part = slice(lo, lo + chunk)
            rhs = diag[part, None] & diag[None, :] & (r1[part, None] == r1[None, :])
            if np.max(np.abs(x[part] @ x.conj().T - rhs)) > tol:
                return False
        return True

    def _witness(self, frm: tuple[str, ...], to: tuple[str, ...], m=None) -> tuple[str, dict]:
        """The worst entry of the signalling identity ``m`` (``_signalling_terms``, formed if
        None), as ``(kind, detail)``: influence and signalling are one ``δ``. The expected
        value, delta_ab times the a=b=0 entry, is formed at the worst entry alone."""
        m = _signalling_terms(self, frm, to) if m is None else m
        entry = _worst_entry(_delta_gap(m, [(2, 4)]), (1, 0, 4, 5, 2, 3))
        t, s, a, k, b, l = entry
        actual, wanted = m[entry], float(a == b) * m[t, s, 0, k, 0, l]
        return "factorization-defect", {
            "variant": "signalling-identity",
            "acting_on": list(frm),
            "target": list(to),
            "from_unit": [a, b],
            "complement_unit": [k, l],
            "marginal_entry": [t, s],
            "actual": [float(actual.real), float(actual.imag)],
            "expected": [float(wanted.real), float(wanted.imag)],
        }

    def _replay(self, kind: str, detail: dict, tol: float = DEFAULT_TOL) -> bool:
        """The block is signalled and the entry still differs from its expected value."""
        if kind != "factorization-defect":
            raise SpecError(f"a quantum channel cannot replay a witness of kind {kind!r}")
        frm, to = tuple(detail["acting_on"]), tuple(detail["target"])
        m = _signalling_terms(self, frm, to)
        (t, s), (a, b) = detail["marginal_entry"], detail["from_unit"]
        k, l = detail["complement_unit"]
        wanted = (a == b) * m[t, s, 0, k, 0, l]
        return self.signals(frm, to, tol) and bool(m[t, s, a, k, b, l] != wanted)

    def _conjugation_matches(self, frm, instrument) -> bool:
        """Instruments are classical tables, so the identity has no quantum form here: the
        refusal comes before any probe is formed."""
        raise SpecError("probe_conjugation_matches_evolution covers the classical model only")


def _gram_deltas(u: UnitaryChannel, sides: Sequence[int], tol: float) -> list[np.ndarray]:
    """``δ[i, t]`` of every wire pair off the probe of ``U`` at input ``i`` (side 0) and off
    the probe of ``Uᵀ`` at output ``t`` (side 1, signalling); a side not in ``sides`` stays 0.

    One loop over the blocks (side, wire): blocks of one grid shape share a
    stack, probes first, in chunks by working set, each one ``_heisenberg``
    product and one ``_pair_deltas`` sweep. The probe rows are certified as
    a stack and run their joint test (``_probe_joint_test``).
    """
    systems = (u.input, u.output), (u.output, u.input)
    blocks = [(s, (k,)) for s in sorted(sides) for k in range(len(systems[s][0]))]
    shapes = [(systems[s][0].dims[k], systems[s][1].dims) for s, (k,) in blocks]
    out = [np.zeros((len(a), len(b))) for a, b in systems]
    # working set: about four arrays of u's entry type the size of the stack
    d_all, entry = u.input.total_dim, 4 * u.matrix.itemsize
    for (dim, _), part in _dim_chunks(shapes, lambda shape: entry * (shape[0] * d_all) ** 2):
        chunk = [blocks[j] for j in part]
        probes = sum(s == 0 for s, _ in chunk)
        # stack[p, c', z'…, c, z…], one axis per wire of ``other`` in z' and in z
        stack = _heisenberg(u, chunk)
        if probes:
            _certify_unitary(stack[:probes].reshape(probes, dim * d_all, -1), DEFAULT_TOL)
        delta = _wire_deltas(stack)
        _probe_joint_test(stack[:probes], delta[:probes], tol)
        for (s, (k,)), row in zip(chunk, delta):
            out[s][k] = row
    return [out[0], out[1].T]


def _probe_joint_test(probes: np.ndarray, delta: np.ndarray, tol: float) -> np.ndarray:
    """``idle = δ <= tol`` of a certified probe stack, and the joint test of each probe with
    an idle wire: ``_identity_factor`` on them, bounded by the root sum of squares of their
    ``δ``, with ``W`` certified.

    A probe with no idle wire skips it, and no check is lost: with no pairs
    the kernel would set ``W = x`` and ``ε = 0`` and test
    ``_unitarity_defects(x) <= DEFAULT_TOL``, the stack certificate already
    run on the same matrix at the same bound (in ``t_process`` by the probe
    channel's constructor).
    """
    idle, n = delta <= tol, delta.shape[1]
    for p in np.flatnonzero(idle.any(axis=1)).tolist():
        wires = np.flatnonzero(idle[p])
        pairs = [(k + 1, n + k + 2) for k in wires.tolist()]
        _identity_factor(probes[p], pairs, DEFAULT_TOL, np.linalg.norm(delta[p, wires]))
    return idle


def _quantum_memory(
    u: UnitaryChannel,
    frm: tuple[str, ...],
    idle: tuple[str, ...],
    tilde: UnitaryChannel,
    eps: float,
    t_mat: np.ndarray,
):
    """The memory form ``(env, v, w, discarded)`` of ``u``, which does not signal from
    ``frm`` to ``idle``, as the read-only matrices the check verified: ``V = U(|0>_A x
    .)``, rows ``(env, B')``, and ``t_mat``, the certified factor ``W`` of u's probe
    ``tilde`` on ``idle`` (``_identity_factor``), not tested again, columns ``(A, env)``
    and rows ``(discarded, A')``, the copies first; ``eps`` is ``‖tilde − W x 1‖_F``.
    """
    ap_names = u.output.complement(idle)
    env_sys = _fresh_copies(u, u.output, ap_names, "_env")
    # V: evolve with the probed block in the ground state, off U grouped [A', B', A, B]
    g = _grouped(u.matrix, u.output, u.input, ap_names, frm)
    v_iso = np.ascontiguousarray(g[:, :, 0]).reshape(-1, g.shape[3])
    _verify_quantum_memory(g, v_iso, t_mat, _factor_atol(eps, u.atol))
    v_iso.flags.writeable = t_mat.flags.writeable = False
    return env_sys, v_iso, t_mat, tilde.output.select(tilde.output.names[: len(frm)])


def _verify_quantum_memory(u_g, v_iso, t_mat, check_tol):
    """Check that the legs recompose ``u``: ``(W x 1_B')(1_A x V) = |0>_C x U``.

    The probe is an involution with ``tilde(|0>_C x U|a,b>) = |a>_C x V|b>``
    (``V = v_iso``), so the two sides differ by ``-R tilde (|0>_C x U)``,
    ``R = tilde - W x 1``: every entry is at most ``ε = ‖R‖_F`` plus u's
    certificate, within ``check_tol``. The legs' Kraus operators are the
    copy rows ``<c|`` of the left side, so the identity gives ``U rho U+``
    back on every state. Both sides are grouped (A', B') by (A, B), with B'
    and B in system order, as ``_grouped`` leaves them: ``u_g`` is U grouped
    ``[A', B', A, B]``, the array ``V`` was read off.
    """
    d_ap, d_bp, d_a, d_b = u_g.shape
    # lhs[(c, A'), a, B', b]: the factor's env input contracted with V's A' rows
    lhs = np.tensordot(t_mat.reshape(-1, d_a, d_ap), v_iso.reshape(d_ap, d_bp, d_b), 1)
    lhs = lhs.reshape(d_a, d_ap, d_a, d_bp, d_b)
    lhs[0] -= u_g.transpose(0, 2, 1, 3)
    if np.max(np.abs(lhs)) > check_tol:
        raise ConsistencyError("quantum memory decomposition failed to recompose")


def _worst_entry(gap: np.ndarray, mirror: Sequence[int]) -> tuple[int, ...]:
    """Multi-index of a largest entry of ``gap``, the same for any rounding.

    ``gap`` is symmetric under the axis permutation ``mirror`` up to rounding
    (the Hermitian mirror of its entries), so a tied pair is ranked as one: the
    first largest entry of ``max(gap, mirrored gap)`` in row-major order, which
    is the lexicographically smaller entry of its pair.
    """
    sym = np.maximum(gap, gap.transpose(mirror))
    return tuple(int(i) for i in np.unravel_index(np.argmax(sym), sym.shape))


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
    """Lift a reversible classical channel to the permutation unitary with the same
    table: basis state ``x`` goes to basis state ``table[x]``."""
    n = channel.input.total_dim
    m = np.zeros((n, n))
    m[channel._arr, np.arange(n)] = 1.0
    return UnitaryChannel(channel.input, channel.output, m)


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
