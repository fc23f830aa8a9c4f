"""Causal influence, signalling, and neighbourhood analysis for reversible channels.

The central construction probes a reversible channel ``u`` at an input subset
``A``: introduce a fresh copy of ``A``, undo the evolution, swap the copy with
the real input, and evolve again. The resulting probe process acts on the copy
together with all outputs, and the largest output subset on which it factors
as an identity is exactly the set of outputs that ``A`` cannot influence. Its
complement is the causal neighbourhood of ``A``.

Most of this module is generic over the two channel models through the
shared reversible-channel protocol (``compose``, ``tensor``, ``invert``,
``signals``, ``factors_as_identity``, ``identity``, ``from_index_permutation``).
Three places branch on the model. The classical probe process is gathered
straight from the lookup table instead of being composed, and its idle
outputs are read off that table in one sweep. Memory decompositions and
witness extraction branch because their constructions genuinely differ.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .classical import ClassicalChannel, ClassicalInstrument
from .errors import ConsistencyError, SpecError
from .quantum import DEFAULT_TOL, StateMap, UnitaryChannel, _grouped
from .systems import CompositeSystem, composite, reorder_permutation

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
    "inverse_nosignalling_check",
    "iterate",
    "memory_decomposition",
    "neighbourhood",
    "probe_conjugation_matches_evolution",
    "replay_witness",
    "reorder_wires",
    "signalling_relation",
    "t_process",
]

Channel = Union[ClassicalChannel, UnitaryChannel]


# -- generic wiring combinators --------------------------------------------------


def _ordered_subset(system: CompositeSystem, names: Iterable[str]) -> tuple[str, ...]:
    """Validate ``names`` against ``system`` and return them in system order."""
    wanted = set(names)
    system.subset_positions(wanted)
    return tuple(n for n in system.names if n in wanted)


def _fresh_names(taken: set[str], bases: Sequence[str], suffix: str) -> tuple[str, ...]:
    out = []
    for base in bases:
        cand = f"{base}{suffix}"
        while cand in taken:
            cand += suffix
        taken.add(cand)
        out.append(cand)
    return tuple(out)


def reorder_wires(
    channel: Channel,
    input_order: Optional[Sequence[str]] = None,
    output_order: Optional[Sequence[str]] = None,
) -> Channel:
    """The same channel with its wires listed in a different order."""
    cls = type(channel)
    out = channel
    if input_order is not None:
        p = reorder_permutation(channel.input, input_order)
        r = cls.from_index_permutation(channel.input, channel.input.select(input_order), p)
        out = out.compose(r.invert())
    if output_order is not None:
        q = reorder_permutation(channel.output, output_order)
        r = cls.from_index_permutation(channel.output, channel.output.select(output_order), q)
        out = r.compose(out)
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
    order = list(names) + rest
    cls = type(channel)
    p = reorder_permutation(system, order)
    r = cls.from_index_permutation(system, system.select(order), p)
    big = channel.tensor(cls.identity(system.restrict(rest)))
    return r.invert().compose(big).compose(r)


def _content_swap(system: CompositeSystem, pairs: Sequence[tuple[str, str]]) -> UnitaryChannel:
    """Unitary exchanging the contents of equal-dimension wire pairs."""
    source = list(range(len(system)))
    for a, b in pairs:
        pa, pb = system.position(a), system.position(b)
        if system.dims[pa] != system.dims[pb]:
            raise SpecError(f"cannot swap wires {a!r} and {b!r} of different dimensions")
        source[pa], source[pb] = source[pb], source[pa]
    idx = np.arange(system.total_dim)
    table = np.zeros_like(idx)
    for k, s in enumerate(source):
        table += (idx // system.strides[s] % system.dims[s]) * system.strides[k]
    return UnitaryChannel.from_index_permutation(system, system, table)


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
    input and output systems coincide. ``idle_subset`` is the maximal set of
    output wires on which it factors as an identity, and ``factor`` is the
    extracted complement factor (the whole probe process when nothing is idle).
    """

    channel: Channel
    probed: tuple[str, ...]
    probe_copies: tuple[str, ...]
    outputs: tuple[str, ...]
    idle_subset: frozenset[str]
    factor: Channel

    @property
    def influenced(self) -> tuple[str, ...]:
        """Output wires not in the idle subset, in output order."""
        return tuple(n for n in self.outputs if n not in self.idle_subset)


def t_process(u: Channel, probed: Iterable[str], tol: float = DEFAULT_TOL) -> TProcessResult:
    """Conjugate the copy-swap at ``probed`` by the evolution and factor it.

    The probe channel is (copy-padded u) after (swap copies with probed inputs)
    after (copy-padded u inverse). Classically it is gathered in one pass as
    ``(c, z) -> (x_A, u(x with A := c))`` for ``x = u^-1(z)``, and the idle
    outputs are read off that table. Quantum idle outputs are found wire by
    wire (identity factors on disjoint wires combine). Either way the joint
    factorization is verified once at the end.
    """
    frm = _ordered_subset(u.input, probed)
    taken = set(u.input.names) | set(u.output.names)
    copies = _fresh_names(taken, frm, "_1")
    copy_sys = composite(
        *((c, u.input.parts[u.input.position(n)].dim) for c, n in zip(copies, frm))
    )
    if isinstance(u, ClassicalChannel):
        table = _classical_probe_table(u, frm, copy_sys)
        probe_sys = copy_sys.concat(u.output)
        tilde = ClassicalChannel(probe_sys, probe_sys, table)
        idle = _idle_wires(probe_sys, table, u.output.names)
    else:
        back = UnitaryChannel.identity(copy_sys).tensor(u.invert())
        swap = _content_swap(copy_sys.concat(u.input), list(zip(copies, frm)))
        fwd = UnitaryChannel.identity(copy_sys).tensor(u)
        tilde = fwd.compose(swap).compose(back)
        idle = tuple(
            w for w in u.output.names if tilde.factors_as_identity((w,), tol) is not None
        )
    factor = tilde.factors_as_identity(idle, tol)
    if factor is None:
        raise ConsistencyError(
            "per-wire idle factors did not combine into a joint factorization"
        )
    return TProcessResult(
        channel=tilde,
        probed=frm,
        probe_copies=copies,
        outputs=u.output.names,
        idle_subset=frozenset(idle),
        factor=factor,
    )


def _classical_probe_table(
    u: ClassicalChannel, frm: tuple[str, ...], copy_sys: CompositeSystem
) -> np.ndarray:
    """Joint-index table of the classical probe process on (copies, outputs).

    Entry ``(c, z)`` is ``(x_A, u(x with A := c))`` for ``x = u^-1(z)``.
    """
    d_copy, d_out = copy_sys.total_dim, u.output.total_dim
    pos = [u.input.position(n) for n in frm]
    # a leading unit axis keeps the codec valid on the empty system
    x = list(np.unravel_index(np.argsort(u._arr), (1,) + u.input.dims)[1:])
    before = np.ravel_multi_index(tuple(x[p] for p in pos), copy_sys.dims)
    copy_digits = np.unravel_index(np.arange(d_copy)[:, None], (1,) + copy_sys.dims)[1:]
    for p, c in zip(pos, copy_digits):
        x[p] = c  # a column: broadcasts against the outputs' row
    after = u._arr[np.ravel_multi_index(tuple(x), u.input.dims)]
    return np.broadcast_to(before * d_out + after, (d_copy, d_out)).reshape(-1)


def _idle_wires(
    system: CompositeSystem, table: np.ndarray, names: Sequence[str]
) -> tuple[str, ...]:
    """The ``names`` wires on which a bijective table of ``system`` acts as identity.

    A wire is idle when its digit passes through and no other output digit
    depends on it. For a bijection that holds exactly when, along the wire's
    axis, the table is its value at digit 0 plus the digit times the wire's
    stride. (Each line along the axis then maps onto ``dim`` consecutive
    values of ``index // stride``; runs of that length tile the index space
    only when each starts at digit 0.)
    """
    grid = table.reshape(system.dims)
    idle = []
    for name in names:
        k = system.position(name)
        dim, stride = system.dims[k], system.strides[k]
        digit = np.arange(dim).reshape([dim if a == k else 1 for a in range(grid.ndim)])
        if np.array_equal(grid, np.take(grid, [0], axis=k) + digit * stride):
            idle.append(name)
    return tuple(idle)


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
    """True iff some wire of ``to_out`` lies in the causal neighbourhood of ``from_in``."""
    to = _ordered_subset(u.output, to_out)
    return bool(set(to) & neighbourhood(u, from_in, tol))


def signalling_relation(
    u: Channel, from_in: Iterable[str], to_out: Iterable[str], tol: float = DEFAULT_TOL
) -> bool:
    """True iff signalling from ``from_in`` to ``to_out`` is possible."""
    return u.signals(from_in, to_out, tol)


# -- memory decomposition ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MemoryDecomposition:
    """Factorization of ``u`` through a memory wire: first ``v``, then ``w``.

    ``v`` maps the non-probed input block B to (env, idle output block B');
    ``w`` maps (probed block A, env) to the remaining outputs A'. Recomposing
    the two legs reproduces ``u`` exactly (classical) or within tolerance on a
    spanning set of product states (quantum); this is verified at construction.
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
    if isinstance(u, ClassicalChannel):
        return _classical_memory(u, frm, idle)
    return _quantum_memory(u, frm, idle, tol)


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
) -> Optional[MemoryDecomposition]:
    if u.signals(frm, idle):
        return None
    a_sys, b_names, b_sys, ap_names, ap_sys, bp_sys = _blocks(u, frm, idle)
    taken = set(u.input.names) | set(u.output.names)
    env_names = _fresh_names(taken, b_names, "_env")
    env_sys = composite(*zip(env_names, b_sys.dims))

    in_a_pos = [u.input.position(n) for n in frm]
    in_b_pos = [u.input.position(n) for n in b_names]
    out_ap_pos = [u.output.position(n) for n in ap_names]
    out_bp_pos = [u.output.position(n) for n in idle]

    def evolve(a_idx: int, b_idx: int) -> tuple[int, ...]:
        vals = [0] * len(u.input)
        for p, v in zip(in_a_pos, a_sys.unflatten(a_idx)):
            vals[p] = v
        for p, v in zip(in_b_pos, b_sys.unflatten(b_idx)):
            vals[p] = v
        return u.output.unflatten(u.table[u.input.flatten(vals)])

    # v copies its input into the memory and emits the idle outputs, which by
    # no-signalling depend on the B block alone
    d_bp = bp_sys.total_dim
    v_table = []
    for y in range(b_sys.total_dim):
        z = evolve(0, y)
        v_table.append(y * d_bp + bp_sys.flatten([z[p] for p in out_bp_pos]))
    v = ClassicalInstrument(b_sys, env_sys.concat(bp_sys), tuple(v_table))

    d_env = env_sys.total_dim
    w_table = []
    for x in range(a_sys.total_dim):
        for e in range(d_env):
            z = evolve(x, e)
            w_table.append(ap_sys.flatten([z[p] for p in out_ap_pos]))
    w = ClassicalInstrument(a_sys.concat(env_sys), ap_sys, tuple(w_table))

    for x in range(a_sys.total_dim):
        for y in range(b_sys.total_dim):
            e, bp = divmod(v_table[y], d_bp)
            ap = w_table[x * d_env + e]
            z = evolve(x, y)
            if ap != ap_sys.flatten([z[p] for p in out_ap_pos]) or bp != bp_sys.flatten(
                [z[p] for p in out_bp_pos]
            ):
                raise ConsistencyError("memory decomposition failed to recompose")
    return MemoryDecomposition(env=env_sys, v=v, w=w)


def _herm_basis_states(dim: int) -> list[np.ndarray]:
    """Pure states spanning the Hermitian operators on a ``dim``-level system."""
    states = []
    for i in range(dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[i, i] = 1.0
        states.append(m)
    for i in range(dim):
        for j in range(i + 1, dim):
            for phase in (1.0, 1j):
                v = np.zeros(dim, dtype=complex)
                v[i] = 1.0
                v[j] = phase
                v /= np.sqrt(2.0)
                states.append(np.outer(v, v.conj()))
    return states


def _quantum_memory(
    u: UnitaryChannel, frm: tuple[str, ...], idle: tuple[str, ...], tol: float
) -> Optional[MemoryDecomposition]:
    if u.signals(frm, idle, tol):
        return None
    a_sys, b_names, b_sys, ap_names, ap_sys, bp_sys = _blocks(u, frm, idle)
    tp = t_process(u, frm, tol)
    t_fac = tp.channel.factors_as_identity(idle, tol)
    if t_fac is None:
        raise ConsistencyError("no signalling but the probe process does not factor")
    taken = set(u.input.names) | set(u.output.names)
    env_names = _fresh_names(taken, ap_names, "_env")
    env_sys = composite(*zip(env_names, ap_sys.dims))

    # v = (evolve with the probed block in the ground state), rows grouped (A', B')
    in_a_pos = [u.input.position(n) for n in frm]
    in_b_pos = [u.input.position(n) for n in b_names]
    cols = []
    for y in range(b_sys.total_dim):
        vals = [0] * len(u.input)
        for p, v_ in zip(in_b_pos, b_sys.unflatten(y)):
            vals[p] = v_
        cols.append(u.input.flatten(vals))
    q_out = reorder_permutation(u.output, list(ap_names) + list(idle))
    d_out = u.output.total_dim
    q_mat = np.zeros((d_out, d_out))
    for z, zn in enumerate(q_out):
        q_mat[zn, z] = 1.0
    v_iso = q_mat @ u.matrix[:, cols]

    def v_eval(rho: np.ndarray) -> np.ndarray:
        return v_iso @ rho @ v_iso.conj().T

    v = StateMap(b_sys, env_sys.concat(bp_sys), v_eval)

    # w feeds (A, env) through the extracted probe factor and discards the copies
    t_mat = t_fac.matrix
    d_a = a_sys.total_dim
    d_ap = ap_sys.total_dim

    def w_eval(x: np.ndarray) -> np.ndarray:
        y = t_mat @ x @ t_mat.conj().T
        t4 = y.reshape(d_a, d_ap, d_a, d_ap)
        return np.trace(t4, axis1=0, axis2=2)

    w = StateMap(a_sys.concat(env_sys), ap_sys, w_eval)

    _verify_quantum_memory(u, frm, b_names, ap_names, idle, v_iso, t_mat, tol)
    return MemoryDecomposition(env=env_sys, v=v, w=w)


def _verify_quantum_memory(u, frm, b_names, ap_names, idle, v_iso, t_mat, tol):
    a_sys = u.input.restrict(frm)
    b_sys = u.input.restrict(b_names)
    ap_sys = u.output.restrict(ap_names)
    bp_sys = u.output.restrict(idle)
    d_a, d_b = a_sys.total_dim, b_sys.total_dim
    d_ap, d_bp = ap_sys.total_dim, bp_sys.total_dim

    p_in = reorder_permutation(u.input, list(frm) + list(b_names))
    d_in = u.input.total_dim
    p_mat = np.zeros((d_in, d_in))
    for x, xn in enumerate(p_in):
        p_mat[xn, x] = 1.0
    q_out = reorder_permutation(u.output, list(ap_names) + list(idle))
    d_out = u.output.total_dim
    q_mat = np.zeros((d_out, d_out))
    for z, zn in enumerate(q_out):
        q_mat[zn, z] = 1.0

    big_w = np.kron(t_mat, np.eye(d_bp))
    check_tol = max(tol, 1e-9)
    for rho_a in _herm_basis_states(d_a):
        for rho_b in _herm_basis_states(d_b):
            x_grouped = np.kron(rho_a, rho_b)
            x_orig = p_mat.conj().T @ x_grouped @ p_mat
            lhs = q_mat @ (u.matrix @ x_orig @ u.matrix.conj().T) @ q_mat.conj().T
            tau = np.kron(rho_a, v_iso @ rho_b @ v_iso.conj().T)
            moved = big_w @ tau @ big_w.conj().T
            t4 = moved.reshape(d_a, d_ap * d_bp, d_a, d_ap * d_bp)
            rhs = np.trace(t4, axis1=0, axis2=2)
            if np.max(np.abs(lhs - rhs)) > check_tol:
                raise ConsistencyError("quantum memory decomposition failed to recompose")


# -- hierarchy ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Witness:
    """Replayable evidence of causal influence.

    ``kind`` is "intervention" (classical: an intervention and the inputs where
    conjugating it by the evolution breaks the target-local form) or
    "factorization-defect" (quantum: an entry of the signalling identity or of
    the idle-pattern check that fails).
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
        return {
            "from": list(self.from_in),
            "to": list(self.to_out),
            "causal_influence": self.causal_influence,
            "memory_decomposable": self.memory_decomposable,
            "signalling": self.signalling,
            "consistent": self.consistent,
            "witness": None
            if self.witness is None
            else {"kind": self.witness.kind, "detail": self.witness.detail},
        }


def hierarchy_report(
    u: Channel, from_in: Iterable[str], to_out: Iterable[str], tol: float = DEFAULT_TOL
) -> HierarchyReport:
    """Compute causal influence, memory-decomposability, and signalling independently."""
    frm = _ordered_subset(u.input, from_in)
    to = _ordered_subset(u.output, to_out)
    causal = has_causal_influence(u, frm, to, tol)
    memory = memory_decomposition(u, frm, to, tol) is not None
    sig = u.signals(frm, to, tol)
    consistent = (causal or memory) and ((not memory) or (not sig))
    witness = find_witness(u, frm, to, tol) if causal else None
    return HierarchyReport(
        from_in=frm,
        to_out=to,
        causal_influence=causal,
        memory_decomposable=memory,
        signalling=sig,
        consistent=consistent,
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
        return {
            "acting": list(self.acting),
            "bystander": list(self.bystander),
            "premise_holds": self.premise_holds,
            "factorizes": self.factorizes,
            "verdict": self.verdict,
            "forced_influence": self.forced_influence,
        }


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
    if acting is None:
        acting = (u.input.names[0],)
    act = _ordered_subset(u.input, acting)
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
        tbl = np.asarray(u.table)
        arr = np.arange(u.input.total_dim)
        in_pos = [u.input.position(n) for n in bystander]
        out_pos = [u.output.position(n) for n in bystander]
        from .classical import _digit_arrays

        return bool(
            np.array_equal(
                _digit_arrays(u.input, arr, in_pos), _digit_arrays(u.output, tbl, out_pos)
            )
        )
    g = _grouped(u.matrix, u.output, u.input, act, act)
    d_a = u.input.select(act).total_dim
    d_b = u.input.total_dim // d_a
    m = np.einsum("apxw,aqyv->pqxwyv", g, g.conj())
    req = (
        np.eye(d_a).reshape(1, 1, d_a, 1, d_a, 1)
        * np.eye(d_b).reshape(d_b, 1, 1, d_b, 1, 1)
        * np.eye(d_b).reshape(1, d_b, 1, 1, 1, d_b)
    )
    return bool(np.max(np.abs(m - req)) <= tol)


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
    b_names = u.input.complement(frm)
    if isinstance(u, ClassicalChannel):
        b_sys = u.input.restrict(b_names)
        to_sys = u.output.restrict(to)
        in_b_pos = [u.input.position(n) for n in b_names]
        out_to_pos = [u.output.position(n) for n in to]
        c_table = []
        for y in range(b_sys.total_dim):
            vals = [0] * len(u.input)
            for p, v in zip(in_b_pos, b_sys.unflatten(y)):
                vals[p] = v
            z = u.output.unflatten(u.table[u.input.flatten(vals)])
            c_table.append(to_sys.flatten([z[p] for p in out_to_pos]))
        inv = u.invert()
        for z_idx in range(u.output.total_dim):
            x = u.input.unflatten(inv.table[z_idx])
            y = b_sys.flatten([x[p] for p in in_b_pos])
            z = u.output.unflatten(z_idx)
            if c_table[y] != to_sys.flatten([z[p] for p in out_to_pos]):
                return False
        return True
    # quantum: test the two CP maps on a matrix-unit basis of the output space
    b_sys = u.input.restrict(b_names)
    cols = []
    for y in range(b_sys.total_dim):
        vals = [0] * len(u.input)
        for p, v in zip([u.input.position(n) for n in b_names], b_sys.unflatten(y)):
            vals[p] = v
        cols.append(u.input.flatten(vals))
    c_iso = u.matrix[:, cols]  # B -> full output space, from block grounded

    def c_map(sigma: np.ndarray) -> np.ndarray:
        rho = c_iso @ sigma @ c_iso.conj().T
        return _trace_keep(rho, u.output, to)

    d = u.output.total_dim
    udag = u.matrix.conj().T
    for z1 in range(d):
        for z2 in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[z1, z2] = 1.0
            back = udag @ e @ u.matrix
            sigma = _trace_keep(back, u.input, b_names)
            lhs = c_map(sigma)
            rhs = _trace_keep(e, u.output, to)
            if np.max(np.abs(lhs - rhs)) > tol:
                return False
    return True


def _trace_keep(matrix: np.ndarray, system: CompositeSystem, keep: Sequence[str]) -> np.ndarray:
    """Partial trace of an arbitrary (not necessarily state) matrix."""
    keep_set = set(keep)
    t = matrix.reshape(system.dims + system.dims)
    n = len(system)
    traced = 0
    for pos in range(n):
        if system.names[pos] not in keep_set:
            ax = pos - traced
            t = np.trace(t, axis1=ax, axis2=ax + n - traced)
            traced += 1
    d = system.restrict(keep_set).total_dim
    return t.reshape(d, d)


# -- witnesses ----------------------------------------------------------------------


def find_witness(
    u: Channel, from_in: Iterable[str], to_out: Iterable[str], tol: float = DEFAULT_TOL
) -> Witness:
    """Produce replayable evidence that ``from_in`` causally influences ``to_out``.

    Classical search order is fixed for reproducibility: constant preparations,
    then measure-and-prepare atoms, then the copy-swap intervention, then
    deterministic intervention tables in lexicographic order. The copy-swap is
    guaranteed to witness whenever influence exists, so the search terminates.
    """
    frm = _ordered_subset(u.input, from_in)
    to = _ordered_subset(u.output, to_out)
    if not has_causal_influence(u, frm, to, tol):
        raise SpecError("find_witness requires causal influence from_in -> to_out")
    if isinstance(u, ClassicalChannel):
        return _classical_witness(u, frm, to)
    return _quantum_witness(u, frm, to, tol)


def _intervention_candidates(d_from: int):
    """(env_dim, partial table on env*from) in the documented search order."""
    for j in range(d_from):
        yield 1, tuple([j] * d_from), "constant"
    for i in range(d_from):
        for j in range(d_from):
            table: list[Optional[int]] = [None] * d_from
            table[i] = j
            yield 1, tuple(table), "atom"
    swap = tuple(a * d_from + e for e in range(d_from) for a in range(d_from))
    yield d_from, swap, "copy-swap"
    for table in itertools.product(range(d_from), repeat=d_from):
        yield 1, table, "table"


def _conjugated_table(
    u: ClassicalChannel, frm: tuple[str, ...], env_dim: int, table: tuple[Optional[int], ...]
) -> list[Optional[tuple[int, int]]]:
    """Partial table of (env', output') for the intervention conjugated by u."""
    from_sys = u.input.select(frm)
    d_from = from_sys.total_dim
    in_from_pos = [u.input.position(n) for n in frm]
    inv = u.invert()
    out: list[Optional[tuple[int, int]]] = []
    for e in range(env_dim):
        for z_idx in range(u.output.total_dim):
            x = list(u.input.unflatten(inv.table[z_idx]))
            a = from_sys.flatten([x[p] for p in in_from_pos])
            hit = table[e * d_from + a]
            if hit is None:
                out.append(None)
                continue
            e2, a2 = divmod(hit, d_from)
            for p, v in zip(in_from_pos, from_sys.unflatten(a2)):
                x[p] = v
            out.append((e2, u.table[u.input.flatten(x)]))
    return out


def _local_form_violation(
    conj: list[Optional[tuple[int, int]]],
    env_dim: int,
    output: CompositeSystem,
    to: tuple[str, ...],
) -> Optional[dict]:
    """First failure of conj = (map on env and non-target outputs) x identity-on-target."""
    to_sys = output.restrict(to)
    rest_names = output.complement(to)
    rest_sys = output.restrict(rest_names)
    to_pos = [output.position(n) for n in to]
    rest_pos = [output.position(n) for n in rest_names]
    d_out = output.total_dim

    def split(z_idx: int) -> tuple[int, int]:
        z = output.unflatten(z_idx)
        return (
            to_sys.flatten([z[p] for p in to_pos]),
            rest_sys.flatten([z[p] for p in rest_pos]),
        )

    groups: dict[tuple[int, int], dict] = {}
    for e in range(env_dim):
        for z_idx in range(d_out):
            z_to, z_rest = split(z_idx)
            entry = conj[e * d_out + z_idx]
            if entry is not None:
                e2, z2_idx = entry
                z2_to, z2_rest = split(z2_idx)
                if z2_to != z_to:
                    return {
                        "type": "pass-through",
                        "points": [[e, z_idx]],
                        "target_in": z_to,
                        "target_out": z2_to,
                    }
                summary = (e2, z2_rest)
            else:
                summary = None
            key = (e, z_rest)
            if key in groups and groups[key]["summary"] != summary:
                return {
                    "type": "independence",
                    "points": [groups[key]["point"], [e, z_idx]],
                }
            groups.setdefault(key, {"summary": summary, "point": [e, z_idx]})
    return None


def _classical_witness(u: ClassicalChannel, frm: tuple[str, ...], to: tuple[str, ...]) -> Witness:
    d_from = u.input.select(frm).total_dim
    for env_dim, table, label in _intervention_candidates(d_from):
        conj = _conjugated_table(u, frm, env_dim, table)
        violation = _local_form_violation(conj, env_dim, u.output, to)
        if violation is not None:
            return Witness(
                kind="intervention",
                detail={
                    "acting_on": list(frm),
                    "target": list(to),
                    "env_dim": env_dim,
                    "intervention": list(table),
                    "intervention_class": label,
                    "violation": violation,
                },
            )
    raise ConsistencyError("influence asserted but no intervention witnessed it")


def _signalling_defect(
    u: UnitaryChannel, frm: tuple[str, ...], to: tuple[str, ...], tol: float
) -> Optional[dict]:
    g = _grouped(u.matrix, u.output, u.input, to, frm)
    d_from = u.input.select(frm).total_dim
    m = np.einsum("tsak,usbl->tuakbl", g, g.conj())
    ref = m[:, :, 0:1, :, 0:1, :]
    delta = np.eye(d_from).reshape(1, 1, d_from, 1, d_from, 1)
    gap = np.abs(m - delta * ref)
    if np.max(gap) <= tol:
        return None
    t, s, a, k, b, l = np.unravel_index(int(np.argmax(gap)), gap.shape)
    actual = m[t, s, a, k, b, l]
    expected = (delta * ref)[t, s, a, k, b, l]
    return {
        "variant": "signalling-identity",
        "acting_on": list(frm),
        "target": list(to),
        "from_unit": [int(a), int(b)],
        "complement_unit": [int(k), int(l)],
        "marginal_entry": [int(t), int(s)],
        "actual": [float(actual.real), float(actual.imag)],
        "expected": [float(expected.real), float(expected.imag)],
    }


def _quantum_witness(
    u: UnitaryChannel, frm: tuple[str, ...], to: tuple[str, ...], tol: float
) -> Witness:
    defect = _signalling_defect(u, frm, to, tol)
    if defect is not None:
        return Witness(kind="factorization-defect", detail=defect)
    # causal influence without signalling: exhibit the idle-pattern failure
    gap, v, pattern = _idle_pattern_gap(u, frm, to, tol)
    i, j, k, l = np.unravel_index(int(np.argmax(gap)), gap.shape)
    return Witness(
        kind="factorization-defect",
        detail={
            "variant": "idle-pattern",
            "acting_on": list(frm),
            "target": list(to),
            "entry": [int(i), int(j), int(k), int(l)],
            "actual": [float(v[i, j, k, l].real), float(v[i, j, k, l].imag)],
            "expected": [float(pattern[i, j, k, l].real), float(pattern[i, j, k, l].imag)],
        },
    )


def _idle_pattern_gap(u: UnitaryChannel, frm: tuple[str, ...], to: tuple[str, ...], tol: float):
    """Deviation of the probe process from (factor tensor identity-on-target)."""
    tilde = t_process(u, frm, tol).channel
    rest = tilde.output.complement(to)
    v = _grouped(tilde.matrix, tilde.output, tilde.input, rest, rest)
    w = v[:, 0, :, 0]
    d_idle = v.shape[1]
    pattern = np.einsum("ij,kl->ikjl", w, np.eye(d_idle))
    return np.abs(v - pattern), v, pattern


def replay_witness(u: Channel, witness: Witness, tol: float = DEFAULT_TOL) -> bool:
    """Re-derive the recorded violation from scratch; True iff it still holds."""
    d = witness.detail
    if witness.kind == "intervention":
        frm = tuple(d["acting_on"])
        conj = _conjugated_table(u, frm, d["env_dim"], tuple(d["intervention"]))
        violation = _local_form_violation(conj, d["env_dim"], u.output, tuple(d["target"]))
        return violation is not None and violation["type"] == d["violation"]["type"]
    frm, to = tuple(d["acting_on"]), tuple(d["target"])
    if d.get("variant") == "signalling-identity":
        fresh = _signalling_defect(u, frm, to, tol)
        return fresh is not None
    gap, _, _ = _idle_pattern_gap(u, frm, to, tol)
    i, j, k, l = d["entry"]
    return bool(gap[i, j, k, l] > tol)


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
    tilde = tp.channel
    frm = tp.probed
    from_sys = u.input.select(frm)
    d_from = from_sys.total_dim
    n_probe_digits = len(frm)
    inst_dims = instrument.input.dims
    if n_probe_digits and tuple(inst_dims[-n_probe_digits:]) != from_sys.dims:
        raise SpecError("instrument's trailing wires must match the probed block")
    d_env = instrument.input.total_dim // d_from
    d_out = u.output.total_dim
    d_copy = d_from
    in_from_pos = [u.input.position(n) for n in frm]
    inv = u.invert()

    for e in range(d_env):
        for cz in range(d_copy * d_out):
            c, z = divmod(cz, d_out)
            # probe, intervene on (env, copy), probe again
            c1, z1 = divmod(tilde.table[cz], d_out)
            hit = instrument.table[e * d_copy + c1]
            lhs: Optional[tuple[int, int, int]] = None
            if hit is not None:
                e2, c2 = divmod(hit, d_copy)
                c3, z3 = divmod(tilde.table[c2 * d_out + z1], d_out)
                lhs = (e2, c3, z3)
            # undo, intervene on (env, real input block), evolve; copy untouched
            x = list(u.input.unflatten(inv.table[z]))
            a = from_sys.flatten([x[p] for p in in_from_pos])
            hit2 = instrument.table[e * d_from + a]
            rhs: Optional[tuple[int, int, int]] = None
            if hit2 is not None:
                e3, a2 = divmod(hit2, d_from)
                for p, v in zip(in_from_pos, from_sys.unflatten(a2)):
                    x[p] = v
                rhs = (e3, c, u.table[u.input.flatten(x)])
            if lhs != rhs:
                return False
    return True
