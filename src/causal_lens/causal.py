"""Causal influence, signalling, and neighbourhood analysis for reversible channels.

The central construction probes a reversible channel ``u`` at an input subset
``A``: introduce a fresh copy of ``A``, undo the evolution, swap the copy with
the real input, and evolve again. The resulting probe process acts on the copy
together with all outputs, and the largest output subset on which it factors
as an identity is exactly the set of outputs that ``A`` cannot influence. Its
complement is the causal neighbourhood of ``A``.

Neither probe process is composed: both are read off the evolution in
closed form, ``tilde[(c', z'), (c, z)] = sum_b U[z', (c, b)] conj(U[z, (c', b)])``
with the inputs grouped as (probed ``c``, rest ``b``). Classically that is a
table gathered in one pass, quantumly one ``quantum._heisenberg`` product certified once.
One probe pass (``_probe_pass``) answers every probe question, on a stack
for ``influence_relation`` and on a stack of one for ``t_process``, the only
caller that builds the probe as a channel and the one channel it builds:
the per-wire idle sweep, then the joint factorization, of a whole classical
stack in one gather and of each quantum probe through the one quantum factor
kernel (``quantum._identity_factor``), which also gives the factors of
``hierarchy_report`` and ``memory_decomposition``; the pass returns the idle
sets and keeps no factor. Classically the per-wire idle test and no-signalling
are one difference kernel (``classical._steps_by``), every wire of a stack
in one call, with the wire's stride or 0 as the step. The memory decompositions
(the quantum legs are checked as one operator identity, ``(W x 1)(1 x V) =
|0> x U``), the interaction-without-disturbance premise and witness
extraction branch on the model too. Quantumly, influence and signalling are
one commutator: each (input block, output wire) verdict reads one normalised
residual ``δ``, off the Gram kernel on ``U`` (probe) or on ``Uᵀ`` (signalling), and
the two readings are compared as values; an output block is reached iff
one of its wires is. Wiring (``embed_on``, ``reorder_wires``,
``iterate``) is generic over the shared reversible-channel protocol
(``compose``, ``tensor``, ``invert``, ``identity``,
``from_index_permutation``), with wire reorderings from
``systems.reorder_permutation``.

Every wire name list is read through ``CompositeSystem.subset_positions``,
which rejects unknown and duplicate names. Every wire digit is read and
written through the system's codec, vectorized over whole tables: the joint
index of named wires through ``CompositeSystem.digits`` / ``with_digits``,
every wire's own digit at once through ``CompositeSystem.digit_rows``.
``wire_relations`` is the one place that checks signalling against
influence, for ``analyze`` and ``ca``.
``hierarchy_report`` builds one probe process and hands it to the memory
decomposition and the witness search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .classical import (
    ClassicalChannel,
    ClassicalInstrument,
    _certify_bijection,
    _steps_by,
)
from .errors import ConsistencyError, SpecError
from .quantum import (
    _CHECK_CHUNK_BYTES,
    DEFAULT_TOL,
    StateMap,
    UnitaryChannel,
    _certify_unitary,
    _delta_gap,
    _dim_chunks,
    _factor_atol,
    _grouped,
    _heisenberg,
    _identity_factor,
    _normalised,
    _pair_deltas,
    _paired_grid,
    _partial_trace,
    _same_reading,
    _signalling_delta,
    _signalling_deltas,
    _signalling_terms,
    _squares,
)
from .systems import CompositeSystem, _read_digits, _write_digits, composite, reorder_permutation

__all__ = [
    "DisturbanceClassification",
    "HierarchyReport",
    "MemoryDecomposition",
    "TProcessResult",
    "Witness",
    "check_interaction_without_disturbance",
    "embed_on",
    "find_witness",
    "has_causal_influence",
    "hierarchy_report",
    "influence_relation",
    "inverse_nosignalling_check",
    "iterate",
    "memory_decomposition",
    "neighbourhood",
    "probe_conjugation_matches_evolution",
    "replay_witness",
    "reorder_wires",
    "t_process",
    "wire_relations",
]

Channel = Union[ClassicalChannel, UnitaryChannel]


# -- generic wiring combinators --------------------------------------------------


def _ordered_subset(system: CompositeSystem, names: Iterable[str]) -> tuple[str, ...]:
    """Validate ``names`` against ``system`` and return them in system order.

    Unknown and duplicate names raise ``SpecError``.
    """
    return tuple(system.names[k] for k in system.subset_positions(names))


def _fresh_names(taken: set[str], bases: Sequence[str], suffix: str) -> tuple[str, ...]:
    out = []
    for base in bases:
        cand = f"{base}{suffix}"
        while cand in taken:
            cand += suffix
        taken.add(cand)
        out.append(cand)
    return tuple(out)


def _relabelling(cls, system: CompositeSystem, order: Sequence[str]) -> Channel:
    """The channel from ``system`` to ``system.select(order)``: its wires relisted."""
    perm = reorder_permutation(system, order)
    return cls.from_index_permutation(system, system.select(order), perm)


def reorder_wires(
    channel: Channel,
    input_order: Optional[Sequence[str]] = None,
    output_order: Optional[Sequence[str]] = None,
) -> Channel:
    """The same channel with its wires listed in a different order."""
    cls = type(channel)
    out = channel
    if input_order is not None:
        out = out.compose(_relabelling(cls, channel.input, input_order).invert())
    if output_order is not None:
        out = _relabelling(cls, channel.output, output_order).compose(out)
    return out


def embed_on(channel: Channel, system: CompositeSystem) -> Channel:
    """Extend a channel to act on ``system``, identity on the untouched wires.

    The channel must have identical input and output wire names, all present
    in ``system`` with matching dimensions.
    """
    names = channel.input.names
    if channel.output.names != names or channel.output.dims != channel.input.dims:
        raise SpecError("embed_on needs a channel with identical input/output wires")
    for part in channel.input.parts:
        if part.dim != system.parts[system.position(part.name)].dim:
            raise SpecError(f"wire {part.name!r} has a different dimension in the host system")
    rest = [n for n in system.names if n not in set(names)]
    cls = type(channel)
    r = _relabelling(cls, system, list(names) + rest)
    big = channel.tensor(cls.identity(system.restrict(rest)))
    return r.invert().compose(big).compose(r)


def _grounded(system: CompositeSystem, names: Sequence[str]) -> np.ndarray:
    """Joint indices with the ``names`` wires running over ``select(names)``, others at 0.

    With every wire named, this is the inverse of reading the wires in that order.
    """
    return system.with_digits(0, names, np.arange(system.select(names).total_dim))


def iterate(channel: Channel, steps: int) -> Channel:
    """``steps``-fold self-composition; the channel must map a system to itself."""
    if steps < 1:
        raise SpecError("steps must be >= 1")
    if channel.input.dims != channel.output.dims:
        raise SpecError("iterate needs matching input/output dimensions")
    out = channel
    for _ in range(steps - 1):
        out = channel.compose(out)
    return out


# -- the probe process ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TProcessResult:
    """Probe process of a channel relative to an input subset.

    ``channel`` acts on the probe copies followed by all original outputs; its
    input and output systems coincide. ``idle_subset`` is the set of output
    wires on which it acts as an identity (quantumly, each with ``δ <= tol``).
    """

    channel: Channel
    probed: tuple[str, ...]
    probe_copies: tuple[str, ...]
    outputs: tuple[str, ...]
    idle_subset: frozenset[str]

    @property
    def influenced(self) -> tuple[str, ...]:
        """Output wires not in the idle subset, in output order."""
        return tuple(n for n in self.outputs if n not in self.idle_subset)


def t_process(u: Channel, probed: Iterable[str], tol: float = DEFAULT_TOL) -> TProcessResult:
    """Conjugate the copy-swap at ``probed`` by the evolution and find its idle outputs.

    The probe channel is (copy-padded u) after (swap copies with probed inputs)
    after (copy-padded u inverse), read off ``u`` in closed form: classically
    the table ``(c, z) -> (x_A, u(x with A := c))`` for ``x = u^-1(z)``,
    quantumly one matrix product on ``U``. Only here is the probe built as a
    channel, whose constructor certifies it, then run through the probe pass
    of ``influence_relation`` as a stack of one. It is the one channel built;
    the factor on the idle set is ``channel.factors_as_identity(idle_subset)``.
    """
    frm = _ordered_subset(u.input, probed)
    taken = set(u.input.names) | set(u.output.names)
    copies = _fresh_names(taken, frm, "_1")
    probe_sys = composite(*zip(copies, u.input.select(frm).dims)).concat(u.output)
    probes = _probes(u, [tuple(u.input.position(n) for n in frm)])
    classical, d = isinstance(u, ClassicalChannel), probe_sys.total_dim
    tilde = type(u)(probe_sys, probe_sys, probes.reshape((d,) if classical else (d, d)))
    mask, _ = _probe_pass(u, probes, tol, _digit_table(u.output) if classical else None)
    return TProcessResult(
        channel=tilde,
        probed=frm,
        probe_copies=copies,
        outputs=u.output.names,
        idle_subset=frozenset(n for n, hit in zip(u.output.names, mask[0]) if hit),
    )


def influence_relation(u: Channel, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The single-wire influence relation: ``r[i, t]`` iff input ``i`` influences output ``t``.

    Entry ``[i, t]`` is ``t in neighbourhood(u, [input i], tol)``, decided in
    one pass with every check of ``t_process`` and no channel built.
    """
    return _influence(u, tol)[0]


def _influence(u: Channel, tol: float) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """``influence_relation`` and, quantumly, the ``δ[i, t]`` it was decided from.

    Probes of equal-dim inputs share a stack, gathered and certified at once,
    and each stack runs one probe pass (``_probe_pass``).
    """
    classical = isinstance(u, ClassicalChannel)
    rel = np.zeros((len(u.input), len(u.output)), dtype=bool)
    deltas = None if classical else np.zeros(rel.shape)
    d_out = u.output.total_dim
    # working set: about four int64 arrays the size of a classical probe
    # table, four arrays of u's entry type the size of a quantum probe matrix
    entry_bytes = (
        (lambda d: 32 * d * d_out)
        if classical
        else (lambda d: 4 * u.matrix.itemsize * (d * d_out) ** 2)
    )
    zd = _digit_table(u.output) if classical else None
    for dim, part in _dim_chunks(u.input.dims, entry_bytes):
        probes = _probes(u, [(k,) for k in part])
        if classical:
            _certify_bijection(probes.reshape(len(part), -1))
        else:
            _certify_unitary(probes.reshape(len(part), dim * d_out, -1), DEFAULT_TOL)
        idle, delta = _probe_pass(u, probes, tol, zd)
        rel[part] = ~idle
        if not classical:
            deltas[part] = delta
    return rel, deltas


def _probe_pass(
    u: Channel, probes: np.ndarray, tol: float, zd: Optional[np.ndarray]
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The per-wire idle sweep and the joint test of a certified ``_probes`` stack.

    ``(idle, δ)``, ``idle[p, k]`` iff output ``k`` is idle for probe ``p``.
    Classically one ``_steps_by`` call, then ``_classical_joint_test`` off
    ``zd``; ``δ`` is None. Quantumly ``δ`` is one ``_pair_deltas``, and each
    probe's joint test is ``_identity_factor`` on its idle wires, bounded by
    the root sum of squares of their ``δ``, with ``W`` certified.
    """
    n = len(u.output)
    if isinstance(u, ClassicalChannel):
        idle = _steps_by(probes, range(1, n + 1), u.output.strides)
        _classical_joint_test(probes.reshape(len(probes), -1), idle, zd)
        return idle, None
    delta = _pair_deltas(probes, [(k + 2, n + k + 3) for k in range(n)])
    idle = delta <= tol
    for p, mask in enumerate(idle):
        wires = np.flatnonzero(mask)
        pairs = [(k + 1, n + k + 2) for k in wires.tolist()]
        _identity_factor(probes[p], pairs, DEFAULT_TOL, np.linalg.norm(delta[p, wires]))
    return idle, delta


def _probes(u: Channel, blocks: Sequence[tuple[int, ...]]) -> np.ndarray:
    """The probe processes of ``u`` at the input ``blocks``, as one stack of grids.

    Each block is a tuple of input positions, and all blocks have the same
    dims. A grid has one axis for the probe copies and one per output wire:
    classically entry ``[p, c, z]`` is the joint index ``(x_A, u(x with A :=
    c))`` for ``x = u^-1(z)``, every table gathered from one ``argsort``;
    quantumly these axes come twice (output side, then input side) and entry
    ``[p, (c', z'), (c, z)]`` is ``sum_b U[z', (c, b)] conj(U[z, (c', b)])``,
    with ``c`` the probed inputs and ``b`` the rest (``quantum._heisenberg``).
    """
    if isinstance(u, UnitaryChannel):
        return _heisenberg(u.matrix, u.output.dims, u.input.dims, blocks)
    d_out = u.output.total_dim
    dims = [u.input.dims[k] for k in blocks[0]]
    d_a = math.prod(dims)
    x = np.argsort(u._arr)
    # per probed wire, a (probes, 1, 1) column of its strides
    strides = np.array(u.input.strides)[np.array(blocks, dtype=int).T][..., None, None]
    c = np.arange(d_a)[:, None]
    after = u._arr[_write_digits(x, strides, dims, c)]
    tables = _read_digits(x, strides, dims) * d_out + after
    return tables.reshape((len(blocks), d_a) + u.output.dims)


def _digit_table(system: CompositeSystem) -> np.ndarray:
    """``zd[k, z]``: wire ``k``'s digit of joint index ``z`` times its stride.

    One broadcast, ``arange(D) // strides % dims * strides``. Floats, so
    that a 0/1 mask times the table is one BLAS product; every value is an
    integer below ``total_dim``, so the product is exact.
    """
    zd = system.digit_rows(np.arange(system.total_dim))
    return (zd * np.array(system.strides, dtype=np.int64).reshape(-1, 1)).astype(float)


def _classical_joint_test(flat: np.ndarray, idle: np.ndarray, zd: np.ndarray) -> None:
    """The joint factorization of every classical probe off its ``idle`` outputs, in one gather.

    ``flat[p]`` is probe ``p``'s table (copy digit most significant) and
    ``zd`` the ``_digit_table`` of the outputs. The grid-level test is
    pass-through on all of a probe's idle wires at once: each entry is the
    entry at its point's idle digits 0 plus those digits. The factor on
    (copy, rest) is certified a bijection: the entries at idle digits 0,
    with their idle digits dropped, are distinct. It does not reuse the
    per-wire sweep, because its job is to catch a wrong sweep.
    """
    n_probes, size = flat.shape
    d_out = zd.shape[1]
    off = (idle.astype(float) @ zd).astype(np.int64)  # each point's idle part
    off2 = np.tile(off, size // d_out)
    ok = _passes_idle_digits(flat, off2).all()
    # the factor: each entry at idle digits 0, keyed apart per probe
    rows, cols = np.nonzero(off2 == 0)
    v = flat[rows, cols]
    keys = v - off[rows, v % d_out] + rows * size
    if not ok or np.bincount(keys, minlength=n_probes * size).max() > 1:
        raise ConsistencyError("per-wire idle factors did not combine into a joint factorization")


def _passes_idle_digits(flat: np.ndarray, off2: np.ndarray) -> np.ndarray:
    """For each table ``flat[p]``, whether every entry is the entry at its point's
    idle digits 0 plus those digits, ``off2[p]`` (pass-through on the idle wires)."""
    base = np.take(flat, np.arange(flat.size).reshape(flat.shape) - off2)
    base += off2
    return (base == flat).all(axis=1)


def wire_relations(u: Channel, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """The single-wire influence and signalling relations, ``[input, output]`` each.

    One influence pass and one signalling pass. Classically a signalling
    pair outside the influence relation is a consistency violation.
    Quantumly the two passes read the same ``δ``, must agree as values, and
    the signalling relation is then the influence relation.
    """
    if isinstance(u, UnitaryChannel):
        influence, deltas = _influence(u, tol)
        if not _same_reading(deltas, _signalling_deltas(u)):
            raise ConsistencyError("the probe and signalling readings of a quantum delta differ")
        return influence, influence.copy()
    influence, signalling = influence_relation(u, tol), u.wire_signalling(tol)
    escaped = np.flatnonzero((signalling & ~influence).any(axis=1))
    if escaped.size:
        name = u.input.names[escaped[0]]
        raise ConsistencyError(f"signalling set of {name} escapes its causal neighbourhood")
    return influence, signalling


def neighbourhood(u: Channel, probed: Iterable[str], tol: float = DEFAULT_TOL) -> frozenset[str]:
    """Output wires causally influenced by the ``probed`` inputs.

    Satisfies the union law: the neighbourhood of a composite probe is the
    union of the single-wire neighbourhoods.
    """
    tp = t_process(u, probed, tol)
    return frozenset(tp.influenced)


def has_causal_influence(
    u: Channel, from_in: Iterable[str], to_out: Iterable[str], tol: float = DEFAULT_TOL
) -> bool:
    """True iff some wire of ``to_out`` lies in the causal neighbourhood of ``from_in``.

    Quantumly a block is decided by its wires' ``δ``, never by the block's
    own ``δ``, which may exceed every wire's inside the tolerance band.
    """
    to = _ordered_subset(u.output, to_out)
    return not t_process(u, from_in, tol).idle_subset.issuperset(to)


# -- memory decomposition ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MemoryDecomposition:
    """Factorization of ``u`` through a memory wire: first ``v``, then ``w``.

    ``v`` maps the non-probed input block B to (env, idle output block B');
    ``w`` maps (probed block A, env) to the remaining outputs A'. Recomposing
    the two legs reproduces ``u`` exactly (classical) or, quantumly, as the
    operator identity ``(W x 1_B')(1_A x V) = |0>_C x U`` within tolerance;
    this is verified at construction.
    """

    env: CompositeSystem
    v: Union[ClassicalInstrument, StateMap]
    w: Union[ClassicalInstrument, StateMap]


def memory_decomposition(
    u: Channel, from_in: Iterable[str], idle_out: Iterable[str], tol: float = DEFAULT_TOL
) -> Optional[MemoryDecomposition]:
    """Memory-channel form of ``u`` for the bipartition (from_in | rest).

    Exists iff ``from_in`` cannot signal to ``idle_out``; returns None when
    signalling holds.
    """
    frm = _ordered_subset(u.input, from_in)
    idle = _ordered_subset(u.output, idle_out)
    if u.signals(frm, idle, tol):
        return None
    if isinstance(u, ClassicalChannel):
        return _classical_memory(u, frm, idle)
    tilde = t_process(u, frm, tol).channel
    _, eps, w = _identity_factor(*_paired_grid(tilde, idle), tilde.atol)
    return _quantum_memory(u, frm, idle, tilde, eps, w)


def _blocks(u: Channel, frm: tuple[str, ...], idle: tuple[str, ...]):
    a_sys = u.input.restrict(frm)
    b_names = u.input.complement(frm)
    b_sys = u.input.restrict(b_names)
    ap_names = u.output.complement(idle)
    ap_sys = u.output.restrict(ap_names)
    bp_sys = u.output.restrict(idle)
    return a_sys, b_names, b_sys, ap_names, ap_sys, bp_sys


def _classical_memory(
    u: ClassicalChannel, frm: tuple[str, ...], idle: tuple[str, ...]
) -> MemoryDecomposition:
    """The memory form of ``u``, which does not signal from ``frm`` to ``idle``."""
    a_sys, b_names, b_sys, ap_names, ap_sys, bp_sys = _blocks(u, frm, idle)
    taken = set(u.input.names) | set(u.output.names)
    env_names = _fresh_names(taken, b_names, "_env")
    env_sys = composite(*zip(env_names, b_sys.dims))
    d_a, d_b, d_bp = a_sys.total_dim, b_sys.total_dim, bp_sys.total_dim

    # z[a, b] = u(a, b); the two blocks' digits are disjoint, so their indices add
    z = u._arr[_grounded(u.input, frm)[:, None] + _grounded(u.input, b_names)]
    z_ap = u.output.digits(z, ap_names)

    # v copies its input into the memory and emits the idle outputs, which by
    # no-signalling depend on the B block alone
    v_table = np.arange(d_b) * d_bp + u.output.digits(z[0], idle)
    v = ClassicalInstrument(b_sys, env_sys.concat(bp_sys), v_table)
    w_table = z_ap.reshape(-1)
    w = ClassicalInstrument(a_sys.concat(env_sys), ap_sys, w_table)

    e, bp = np.divmod(v_table, d_bp)
    if not (
        np.array_equal(w_table.reshape(d_a, d_b)[:, e], z_ap)
        and (u.output.digits(z, idle) == bp).all()
    ):
        raise ConsistencyError("memory decomposition failed to recompose")
    return MemoryDecomposition(env=env_sys, v=v, w=w)


def _quantum_memory(
    u: UnitaryChannel,
    frm: tuple[str, ...],
    idle: tuple[str, ...],
    tilde: UnitaryChannel,
    eps: float,
    t_mat: np.ndarray,
) -> MemoryDecomposition:
    """The memory form of ``u``, which does not signal from ``frm`` to ``idle``.

    ``t_mat`` is the certified factor ``W`` of u's probe process ``tilde`` at
    ``frm`` on ``idle`` (``_identity_factor``), not tested again, and ``eps``
    its residual ``‖tilde − W x 1‖_F``.
    """
    a_sys, b_names, b_sys, ap_names, ap_sys, bp_sys = _blocks(u, frm, idle)
    taken = set(u.input.names) | set(u.output.names)
    env_names = _fresh_names(taken, ap_names, "_env")
    env_sys = composite(*zip(env_names, ap_sys.dims))

    # v = (evolve with the probed block in the ground state), rows grouped (A', B')
    rows = _grounded(u.output, ap_names + idle)
    v_iso = u.matrix[np.ix_(rows, _grounded(u.input, b_names))]

    def v_eval(rho: np.ndarray) -> np.ndarray:
        return v_iso @ rho @ v_iso.conj().T

    v = StateMap(b_sys, env_sys.concat(bp_sys), v_eval)

    # w feeds (A, env) through the extracted probe factor and discards the copies
    t_out = tilde.output.restrict(tilde.output.complement(idle))

    def w_eval(x: np.ndarray) -> np.ndarray:
        return _partial_trace(t_mat @ x @ t_mat.conj().T, t_out, ap_names)

    w = StateMap(a_sys.concat(env_sys), ap_sys, w_eval)

    _verify_quantum_memory(u, frm, b_names, ap_names, idle, v_iso, t_mat, _factor_atol(eps, u.atol))
    return MemoryDecomposition(env=env_sys, v=v, w=w)


def _verify_quantum_memory(u, frm, b_names, ap_names, idle, v_iso, t_mat, check_tol):
    """Check that the legs recompose ``u``: ``(W x 1_B')(1_A x V) = |0>_C x U``.

    The probe is an involution with ``tilde(|0>_C x U|a,b>) = |a>_C x V|b>``
    (``V = v_iso``), so the two sides differ by ``-R tilde (|0>_C x U)``,
    ``R = tilde - W x 1``: every entry is at most ``ε = ‖R‖_F`` plus u's
    certificate, within ``check_tol``. The legs' Kraus operators are the
    copy rows ``<c|`` of the left side, so the identity gives ``U rho U+``
    back on every state. Both sides are grouped (A', B') by (A, B).
    """
    d_a = u.input.select(frm).total_dim
    d_ap = u.output.select(ap_names).total_dim
    rows, cols = _grounded(u.output, ap_names + idle), _grounded(u.input, frm + b_names)
    u_g = u.matrix[np.ix_(rows, cols)]
    d_bp, d_b = len(rows) // d_ap, len(cols) // d_a
    # lhs[(c, A'), a, B', b]: the factor's env input contracted with V's A' rows
    lhs = np.tensordot(t_mat.reshape(-1, d_a, d_ap), v_iso.reshape(d_ap, d_bp, d_b), 1)
    lhs = lhs.reshape(d_a, d_ap, d_a, d_bp, d_b)
    lhs[0] -= u_g.reshape(d_ap, d_bp, d_a, d_b).transpose(0, 2, 1, 3)
    if np.max(np.abs(lhs)) > check_tol:
        raise ConsistencyError("quantum memory decomposition failed to recompose")


# -- hierarchy ---------------------------------------------------------------------


def _fields_dict(report) -> dict:
    """The fields of a report dataclass in declaration order, read without a copy."""
    return {f.name: getattr(report, f.name) for f in fields(report)}


@dataclass(frozen=True, eq=False)
class Witness:
    """Replayable evidence of causal influence.

    ``kind`` is "intervention" (classical: an intervention and the inputs where
    conjugating it by the evolution breaks the target-local form) or
    "factorization-defect" (quantum: the worst entry of the signalling
    identity).
    """

    kind: str
    detail: dict


@dataclass(frozen=True, eq=False)
class HierarchyReport:
    """The three causal conditions for one (input block, output block) pair.

    ``consistent`` records the implication chain: no causal influence implies
    memory-decomposable implies no signalling.
    """

    from_in: tuple[str, ...]
    to_out: tuple[str, ...]
    causal_influence: bool
    memory_decomposable: bool
    signalling: bool
    consistent: bool
    witness: Optional[Witness] = None

    def to_dict(self) -> dict:
        out = _fields_dict(self)
        out["from"], out["to"] = out.pop("from_in"), out.pop("to_out")
        if self.witness is not None:
            out["witness"] = {"kind": self.witness.kind, "detail": self.witness.detail}
        return out


def hierarchy_report(
    u: Channel, from_in: Iterable[str], to_out: Iterable[str], tol: float = DEFAULT_TOL
) -> HierarchyReport:
    """Compute causal influence, memory-decomposability, and signalling.

    One probe process serves all three and the witness. Quantumly they are
    one decision, on the ``δ`` of each wire of ``to`` (``has_causal_influence``);
    the block's ``δ``, read off the probe and off the signalling terms, is
    compared as a value.
    """
    frm = _ordered_subset(u.input, from_in)
    to = _ordered_subset(u.output, to_out)
    tp = t_process(u, frm, tol)
    causal = not tp.idle_subset.issuperset(to)
    # a memory form exists iff there is no signalling; building it verifies it
    if isinstance(u, ClassicalChannel):
        sig = u.signals(frm, to, tol)
        if not sig:
            _classical_memory(u, frm, to)
        witness = _classical_witness(u, frm, to) if causal else None
    else:
        m = _signalling_terms(u, frm, to)
        delta, eps, w = _identity_factor(*_paired_grid(tp.channel, to), tp.channel.atol)
        if not _same_reading(delta, _signalling_delta(m)):
            raise ConsistencyError("the probe and signalling readings of a quantum delta differ")
        sig = causal
        if not sig:
            _quantum_memory(u, frm, to, tp.channel, eps, w)
        witness = _quantum_witness(m, frm, to) if causal else None
    return HierarchyReport(
        from_in=frm,
        to_out=to,
        causal_influence=causal,
        memory_decomposable=not sig,
        signalling=sig,
        consistent=causal or not sig,
        witness=witness,
    )


# -- no interaction without disturbance ---------------------------------------------


@dataclass(frozen=True, eq=False)
class DisturbanceClassification:
    """Outcome of the invisible-action test for a channel on a fixed bipartition.

    ``premise_holds``: discarding the acting block's output leaves the
    bystander block untouched. ``factorizes``: the channel is a local action
    tensor the bystander identity. A channel satisfying the premise without
    factorizing is an interaction-without-disturbance witness and is forced to
    causally influence the bystander; ``forced_influence`` records the
    cross-check of that forced relation.
    """

    acting: tuple[str, ...]
    bystander: tuple[str, ...]
    premise_holds: bool
    factorizes: bool
    verdict: str
    forced_influence: Optional[bool] = None

    def to_dict(self) -> dict:
        return _fields_dict(self)


def check_interaction_without_disturbance(
    u: Channel, acting: Optional[Iterable[str]] = None, tol: float = DEFAULT_TOL
) -> DisturbanceClassification:
    """Classify a channel with matching input/output systems.

    ``acting`` names the block whose action should be invisible on the rest;
    it defaults to the first wire.
    """
    if set(u.input.names) != set(u.output.names):
        raise SpecError("classification needs matching input and output wire names")
    for name in u.input.names:
        if u.input.parts[u.input.position(name)].dim != u.output.parts[
            u.output.position(name)
        ].dim:
            raise SpecError(f"wire {name!r} changes dimension between input and output")
    act = _ordered_subset(u.input, u.input.names[:1] if acting is None else acting)
    if not act:
        raise SpecError("the acting block needs at least one wire")
    bystander = u.input.complement(act)
    premise = _discard_leaves_rest_alone(u, act, bystander, tol)
    factor = u.factors_as_identity(bystander, tol) if premise else None
    if premise and factor is not None:
        verdict = "no-interaction"
        forced = None
    elif premise:
        verdict = "interaction-without-disturbance witness"
        forced = has_causal_influence(u, act, bystander, tol)
    else:
        verdict = "disturbing"
        forced = None
    return DisturbanceClassification(
        acting=act,
        bystander=bystander,
        premise_holds=premise,
        factorizes=factor is not None,
        verdict=verdict,
        forced_influence=forced,
    )


def _discard_leaves_rest_alone(
    u: Channel, act: tuple[str, ...], bystander: tuple[str, ...], tol: float
) -> bool:
    """Discarding the acting outputs must give (discard acting) tensor identity."""
    if isinstance(u, ClassicalChannel):
        passed = u.input.digits(np.arange(u.input.total_dim), bystander)
        return np.array_equal(passed, u.output.digits(u._arr, bystander))
    m = _signalling_terms(u, act, bystander)
    d_a = u.input.select(act).total_dim
    d_b = u.input.total_dim // d_a
    req = (
        np.eye(d_a).reshape(1, 1, d_a, 1, d_a, 1)
        * np.eye(d_b).reshape(d_b, 1, 1, d_b, 1, 1)
        * np.eye(d_b).reshape(1, d_b, 1, 1, 1, d_b)
    )
    # on the normalised Frobenius scale of every other quantum verdict
    return bool(_normalised(np.sum(_squares(m - req)), m.size) <= tol)


def inverse_nosignalling_check(
    u: Channel, from_in: Iterable[str], to_out: Iterable[str], tol: float = DEFAULT_TOL
) -> bool:
    """Verify the inverse-evolution identity implied by no-signalling.

    With no signalling from ``from_in`` to ``to_out``, the effective channel C
    (feed a fixed state into the from block, evolve, discard the non-target
    outputs) must satisfy: undo the evolution, discard the from block, apply C
    — and get exactly (discard the rest) tensor (identity on the target).
    A property check, not a decision procedure.
    """
    frm = _ordered_subset(u.input, from_in)
    to = _ordered_subset(u.output, to_out)
    if u.signals(frm, to, tol):
        raise SpecError("precondition failed: the channel signals from_in -> to_out")
    if isinstance(u, ClassicalChannel):
        b_names = u.input.complement(frm)
        grounded = _grounded(u.input, b_names)  # the from block in its ground state
        c_table = u.output.digits(u._arr[grounded], to)
        b_of = u.input.digits(np.argsort(u._arr), b_names)  # B digits of u^-1(z)
        targets = u.output.digits(np.arange(u.output.total_dim), to)
        return np.array_equal(c_table[b_of], targets)
    # quantum: both CP maps on every matrix unit E_(z1, z2) of the output space
    # at once, by contraction. Outputs are grouped (target t, rest r), inputs
    # (from a, rest b), and C feeds a = 0. With p[z1, a, t, r] = sum_b
    # conj(U[z1, (a, b)]) U[(t, r), (0, b)], the left side is
    # lhs[(z1, t), (z2, t')] = sum_(a, r) p[z1, a, t, r] conj(p[z2, a, t', r]),
    # the right side delta(r1, r2) delta(t1, t) delta(t2, t') for z = (t, r).
    h = _grouped(u.matrix, u.output, u.input, to, frm)  # [t, r, a, b]
    d_to, d_r, d_a, _ = h.shape
    p = np.tensordot(h.conj(), h[:, :, 0, :], axes=(3, 2))  # [t1, r1, a, t, r]
    x = p.transpose(0, 1, 3, 2, 4).reshape(d_to * d_r * d_to, d_a * d_r)
    rows = np.arange(len(x))  # (t1, r1, t); the columns alike
    r1, diag = rows // d_to % d_r, rows // (d_r * d_to) == rows % d_to
    chunk = max(1, _CHECK_CHUNK_BYTES // (x.itemsize * len(x)))
    for lo in range(0, len(x), chunk):
        part = slice(lo, lo + chunk)
        rhs = diag[part, None] & diag[None, :] & (r1[part, None] == r1[None, :])
        if np.max(np.abs(x[part] @ x.conj().T - rhs)) > tol:
            return False
    return True


# -- witnesses ----------------------------------------------------------------------


def find_witness(
    u: Channel, from_in: Iterable[str], to_out: Iterable[str], tol: float = DEFAULT_TOL
) -> Witness:
    """Produce replayable evidence that ``from_in`` causally influences ``to_out``.

    Classically the witness is the first constant preparation ``A := j`` (no
    environment), ``j`` in order, whose conjugate by the evolution breaks the
    target-local form. One always exists. Suppose every conjugate of
    ``A := j`` keeps the target output digit and maps the other output
    digits through some ``f_j``. At ``j = x_A`` the conjugate is the identity
    at ``u(x)``, so ``f_(x_A)`` fixes the rest digits of ``u(x)``. If two
    outputs with equal rest digits had preimages ``x, x'`` differing on
    ``A``, then ``u(x'[A := x_A])`` would share the target digit of ``u(x')``
    and, through ``f_(x_A)``, its rest digits too: ``u(x'[A := x_A]) =
    u(x')``, against injectivity. So the preimage's ``A`` digit is a function
    of the rest outputs, and the copy-swap conjugate, which is the probe
    process, is target-local as well: no influence.
    """
    frm = _ordered_subset(u.input, from_in)
    to = _ordered_subset(u.output, to_out)
    if not has_causal_influence(u, frm, to, tol):
        raise SpecError("find_witness requires causal influence from_in -> to_out")
    if isinstance(u, ClassicalChannel):
        return _classical_witness(u, frm, to)
    return _quantum_witness(_signalling_terms(u, frm, to), frm, to)


def _conjugated_table(
    u: ClassicalChannel, frm: tuple[str, ...], env_dim: int, table: Sequence[Optional[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """The intervention conjugated by u, as (env', output') arrays over (env, output).

    Points run in row-major order; env' is -1 where the intervention is undefined.
    """
    d_from = u.input.select(frm).total_dim
    x = np.tile(np.argsort(u._arr), env_dim)  # u^-1 of each output, once per env value
    env = np.repeat(np.arange(env_dim), u.output.total_dim)
    hits = np.array([-1 if v is None else v for v in table])[env * d_from + u.input.digits(x, frm)]
    e2, a2 = np.divmod(hits, d_from)
    return np.where(hits < 0, -1, e2), u._arr[u.input.with_digits(x, frm, a2)]


def _local_form_violation(
    conj: tuple[np.ndarray, np.ndarray],
    env_dim: int,
    output: CompositeSystem,
    to: tuple[str, ...],
) -> Optional[dict]:
    """First failure of conj = (map on env and non-target outputs) x identity-on-target.

    Points are scanned in row-major (env, output) order. A point fails if its
    target digit does not pass through, or if its (env', non-target output')
    value, undefined included, differs from that of the first point in its
    (env, non-target output) fibre.
    """
    e2, z2 = conj
    d_out = output.total_dim
    rest = output.complement(to)
    d_rest = output.select(rest).total_dim
    env = np.repeat(np.arange(env_dim), d_out)
    z = np.tile(np.arange(d_out), env_dim)
    z_to, z2_to = output.digits(z, to), output.digits(z2, to)
    defined = e2 >= 0
    moved = defined & (z2_to != z_to)
    summary = np.where(defined, e2 * d_rest + output.digits(z2, rest), -1)
    _, first, fibre = np.unique(
        env * d_rest + output.digits(z, rest), return_index=True, return_inverse=True
    )
    first = first[fibre]
    bad = np.flatnonzero(moved | (summary != summary[first]))
    if not bad.size:
        return None
    p = bad[0]
    if moved[p]:
        return {
            "type": "pass-through",
            "points": [[int(env[p]), int(z[p])]],
            "target_in": int(z_to[p]),
            "target_out": int(z2_to[p]),
        }
    q = first[p]
    return {
        "type": "independence",
        "points": [[int(env[q]), int(z[q])], [int(env[p]), int(z[p])]],
    }


def _classical_witness(u: ClassicalChannel, frm: tuple[str, ...], to: tuple[str, ...]) -> Witness:
    d_from = u.input.select(frm).total_dim
    for j in range(d_from):
        table = (j,) * d_from
        violation = _local_form_violation(_conjugated_table(u, frm, 1, table), 1, u.output, to)
        if violation is not None:
            return Witness(
                kind="intervention",
                detail={
                    "acting_on": list(frm),
                    "target": list(to),
                    "env_dim": 1,
                    "intervention": list(table),
                    "intervention_class": "constant",
                    "violation": violation,
                },
            )
    raise ConsistencyError("influence asserted but no constant preparation witnessed it")


def _worst_entry(gap: np.ndarray, mirror: Sequence[int]) -> tuple[int, ...]:
    """Multi-index of a largest entry of ``gap``, the same for any rounding.

    ``gap`` is symmetric under the axis permutation ``mirror`` up to rounding
    (the Hermitian mirror of its entries), so a tied pair is ranked as one: the
    first largest entry of ``max(gap, mirrored gap)`` in row-major order, which
    is the lexicographically smaller entry of its pair.
    """
    sym = np.maximum(gap, gap.transpose(mirror))
    return tuple(int(i) for i in np.unravel_index(np.argmax(sym), sym.shape))


def _quantum_witness(m: np.ndarray, frm: tuple[str, ...], to: tuple[str, ...]) -> Witness:
    """The worst entry of the signalling identity: influence and signalling are one ``δ``.

    ``m`` is ``_signalling_terms(u, frm, to)``. The expected value, delta_ab
    times the a=b=0 entry, is formed at the worst entry alone.
    """
    entry = _worst_entry(_delta_gap(m, [(2, 4)]), (1, 0, 4, 5, 2, 3))
    t, s, a, k, b, l = entry
    actual, wanted = m[entry], float(a == b) * m[t, s, 0, k, 0, l]
    return Witness(
        kind="factorization-defect",
        detail={
            "variant": "signalling-identity",
            "acting_on": list(frm),
            "target": list(to),
            "from_unit": [a, b],
            "complement_unit": [k, l],
            "marginal_entry": [t, s],
            "actual": [float(actual.real), float(actual.imag)],
            "expected": [float(wanted.real), float(wanted.imag)],
        },
    )


def replay_witness(u: Channel, witness: Witness, tol: float = DEFAULT_TOL) -> bool:
    """Re-derive the recorded violation from scratch; True iff it still holds.

    Quantumly: the block is signalled (``UnitaryChannel.signals``) and the
    entry still differs from its expected value."""
    d = witness.detail
    if witness.kind == "intervention":
        frm = tuple(d["acting_on"])
        conj = _conjugated_table(u, frm, d["env_dim"], tuple(d["intervention"]))
        violation = _local_form_violation(conj, d["env_dim"], u.output, tuple(d["target"]))
        return violation is not None and violation["type"] == d["violation"]["type"]
    frm, to = tuple(d["acting_on"]), tuple(d["target"])
    m = _signalling_terms(u, frm, to)
    (t, s), (a, b), (k, l) = d["marginal_entry"], d["from_unit"], d["complement_unit"]
    return u.signals(frm, to, tol) and bool(m[t, s, a, k, b, l] != (a == b) * m[t, s, 0, k, 0, l])


# -- probe-process identities ---------------------------------------------------------


def probe_conjugation_matches_evolution(
    u: ClassicalChannel, probed: Iterable[str], instrument: ClassicalInstrument
) -> bool:
    """Exact identity: sandwiching an intervention between two probe processes
    equals conjugating it by the evolution, with the probe copy passing through.

    The instrument acts on (environment wires, probe block); its trailing wire
    dimensions must match the probed block.
    """
    tp = t_process(u, probed)
    frm = tp.probed
    from_sys = u.input.select(frm)
    d_from = from_sys.total_dim
    if frm and tuple(instrument.input.dims[-len(frm):]) != from_sys.dims:
        raise SpecError("instrument's trailing wires must match the probed block")
    d_env = instrument.input.total_dim // d_from
    d_out = u.output.total_dim
    inst = np.array([-1 if v is None else v for v in instrument.table])
    # probe, intervene on (env, copy), probe again; rows env, columns (c, z)
    probe = tp.channel._arr
    c1, z1 = np.divmod(probe, d_out)
    hit = inst[np.arange(d_env)[:, None] * d_from + c1]
    e2, c2 = np.divmod(hit, d_from)
    lhs = probe[c2 * d_out + z1]
    # undo, intervene on (env, real input block), evolve; the copy c passes through
    e3, z3 = (
        np.tile(a.reshape(d_env, d_out), d_from)
        for a in _conjugated_table(u, frm, d_env, instrument.table)
    )
    rhs = np.repeat(np.arange(d_from), d_out) * d_out + z3
    defined = hit >= 0
    return (
        np.array_equal(defined, e3 >= 0)
        and bool((e2 == e3)[defined].all())
        and bool((lhs == rhs)[defined].all())
    )
