"""Reversible classical channels as permutations over product alphabets.

A reversible channel on finite alphabets is a bijective lookup table between
joint indices; everything here is exact integer arithmetic, so the ``tol``
parameters accepted for interface parity with the quantum model are unused.
A channel or instrument keeps its table as ``table``, one read-only 1-D int64
array that its constructor copies, and compares by identity.

Instruments (interventions) are sub-normalized partial functions: a
deterministic table is total, a measure-``i``/prepare-``j`` atom is defined at
a single point, and undefined points are explicit null events (-1 in the
table) rather than renormalized branches.

``ClassicalChannel`` owns the classical kernels of ``causal``'s definitions,
as the protocol steps listed there: the probe stack from one ``argsort``, the
bare probe (``_probe``), its pass (``_steps_by``, then
``_classical_joint_test``), the memory legs read off the table with no
probe, the witness and its replay. The helpers both models need
(``_dim_chunks``, ``_fresh_copies``) live here; ``quantum`` imports them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ConsistencyError, SpecError
from .systems import (
    CompositeSystem,
    _grounded,
    _paired_layout,
    _read_digits,
    _renamed,
    _write_digits,
    composite,
)

__all__ = [
    "ClassicalChannel",
    "ClassicalInstrument",
    "cnot",
    "cyclic_shift",
    "random_reversible",
    "swap_gate",
    "xor_feedback",
]

# working set of one chunk of a stacked check, the classical probe stacks, the quantum
# Gram loop and inverse check: about four arrays the size of one stacked entry each
_CHECK_CHUNK_BYTES = 1 << 20


def _dim_chunks(keys: Sequence, entry_bytes: Callable) -> Iterator[tuple[object, list[int]]]:
    """Positions of ``keys`` grouped by equal key (a dim, or a grid shape), a chunk at a time,
    as ``(key, positions)``: as few chunks of as equal sizes as fit ``_CHECK_CHUNK_BYTES``
    (at least one position each), ``entry_bytes(key)`` being the working set of one."""
    by_key: dict = {}
    for k, key in enumerate(keys):
        by_key.setdefault(key, []).append(k)
    for key, wires in by_key.items():
        cuts = -(-len(wires) // max(1, _CHECK_CHUNK_BYTES // entry_bytes(key)))
        chunk = -(-len(wires) // cuts)
        for lo in range(0, len(wires), chunk):
            yield key, wires[lo : lo + chunk]


def _fresh_copies(u, system: CompositeSystem, names: Sequence[str], suffix: str):
    """Copies of ``system``'s ``names`` wires, in that order, under names on neither side of
    ``u``: each name with ``suffix`` appended until it is free."""
    taken = set(u.input.names) | set(u.output.names)
    parts = []
    for name, dim in zip(names, system.layout(names)[1]):
        cand = f"{name}{suffix}"
        while cand in taken:
            cand += suffix
        taken.add(cand)
        parts.append((cand, dim))
    return composite(*parts)


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


class _Table:
    """A table kept as ``table``, a read-only int64 copy of the one given (-1 the null event)."""

    def _keep(self, arr: np.ndarray) -> np.ndarray:
        if arr.ndim != 1:
            raise SpecError(f"table must be 1-D, got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "table", arr)
        return arr

    def apply(self, x: int) -> Optional[int]:
        """The output index at input index ``x``; None for an instrument's null event."""
        if not 0 <= x < len(self.table):
            raise SpecError(f"input index {x} out of range")
        v = int(self.table[x])
        return None if v < 0 else v


@dataclass(frozen=True, eq=False)
class ClassicalChannel(_Table):
    """A bijection between the joint indices of two equal-cardinality systems."""

    input: CompositeSystem
    output: CompositeSystem
    table: np.ndarray

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

    def apply_values(self, values: Sequence[int]) -> tuple[int, ...]:
        return self.output.unflatten(self.apply(self.input.flatten(values)))

    # -- constructors ----------------------------------------------------------

    @classmethod
    def identity(cls, system: CompositeSystem) -> "ClassicalChannel":
        return cls(system, system, np.arange(system.total_dim))

    # -- algebra -------------------------------------------------------------

    def compose(self, first: "ClassicalChannel") -> "ClassicalChannel":
        """``self  first``: run ``first``, then ``self``."""
        if first.output.dims != self.input.dims:
            raise SpecError(
                f"cannot compose: inner output dims {first.output.dims} != outer input dims {self.input.dims}"
            )
        return ClassicalChannel(first.input, self.output, self.table[first.table])

    def tensor(self, other: "ClassicalChannel") -> "ClassicalChannel":
        inp = self.input.concat(other.input)
        out = self.output.concat(other.output)
        m_out = other.output.total_dim
        table = (self.table[:, None] * m_out + other.table[None, :]).reshape(-1)
        return ClassicalChannel(inp, out, table)

    def invert(self) -> "ClassicalChannel":
        return ClassicalChannel(self.output, self.input, np.argsort(self.table))

    def with_names(
        self,
        input_names: Optional[Sequence[str]] = None,
        output_names: Optional[Sequence[str]] = None,
    ) -> "ClassicalChannel":
        """Same table with renamed wires."""
        return _renamed(self, input_names, output_names)

    # -- causal-structure primitives -----------------------------------------

    def signals(self, from_in: Iterable[str], to_out: Iterable[str], tol: float = 0.0) -> bool:
        """True iff varying the ``from_in`` inputs can move the ``to_out`` marginal.

        Exact: returns False iff the ``to_out`` components of the output are the
        same for all values of the ``from_in`` components, for every fixed value
        of the remaining inputs. ``tol`` is unused.
        """
        from_pos = self.input.subset_positions(from_in)
        grid = self.output.digits(self.table, tuple(to_out)).reshape((1,) + self.input.dims)
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
        grid = self.output.digit_rows(self.table).reshape((len(self.output),) + self.input.dims)
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
        grid = self.table.reshape((1,) + self.input.dims)
        strides = [self.output.strides[k] for k in out_pos]
        if not _steps_by(grid, in_pos, strides)[0].all():
            return None
        # the factor is the table of the remaining outputs with the idle inputs at 0
        w_in = self.input.restrict(self.input.complement(idle))
        w_out = self.output.restrict(self.output.complement(idle))
        w_table = self.output.digits(_at_zero(grid, [k + 1 for k in in_pos]), w_out.names)
        return ClassicalChannel(w_in, w_out, w_table.reshape(-1))

    # -- the protocol steps of ``causal`` ------------------------------------

    def _probes(self, blocks: Sequence[tuple[int, ...]]) -> np.ndarray:
        """The probes at ``blocks`` (input positions of one dims), a stack ``[p, c, z…]`` of
        joint indices ``(x_A, u(x with A := c))`` for ``x = u^-1(z)``, from one ``argsort``."""
        dims = [self.input.dims[k] for k in blocks[0]]
        d_a = math.prod(dims)
        x = np.argsort(self.table)
        # per probed wire, a (probes, 1, 1) column of its strides
        strides = np.array(self.input.strides)[np.array(blocks, dtype=int).T][..., None, None]
        after = self.table[_write_digits(x, strides, dims, np.arange(d_a)[:, None])]
        tables = _read_digits(x, strides, dims) * self.output.total_dim + after
        return tables.reshape((len(blocks), d_a) + self.output.dims)

    def _probe(self, frm: tuple[str, ...]) -> tuple[np.ndarray, "ClassicalChannel"]:
        """The probe at ``frm`` as ``(stack of one, channel on (copies of frm, outputs))``."""
        probes = self._probes([self.input.layout(frm)[0]])
        system = _fresh_copies(self, self.input, frm, "_1").concat(self.output)
        return probes, ClassicalChannel(system, system, probes.reshape(-1))

    def _probe_pass(self, probes: np.ndarray, tol: float = 0.0, zd=None) -> np.ndarray:
        """``idle[p, k]`` of a certified ``_probes`` stack: one ``_steps_by`` call, then
        ``_classical_joint_test`` off ``zd``, the outputs' ``_digit_table`` (built if None)."""
        idle = _steps_by(probes, range(1, len(self.output) + 1), self.output.strides)
        zd = _digit_table(self.output) if zd is None else zd
        _classical_joint_test(probes.reshape(len(probes), -1), idle, zd)
        return idle

    def _influence_relation(self, tol: float = 0.0) -> np.ndarray:
        """One probe pass per chunk of equal-dim inputs, certified at once; one ``zd``."""
        rel = np.zeros((len(self.input), len(self.output)), dtype=bool)
        # working set: about four int64 arrays the size of a probe table
        d_out, zd = self.output.total_dim, _digit_table(self.output)
        for _, part in _dim_chunks(self.input.dims, lambda d: 32 * d * d_out):
            probes = self._probes([(k,) for k in part])
            _certify_bijection(probes.reshape(len(part), -1))
            rel[part] = ~self._probe_pass(probes, tol, zd)
        return rel

    def _wire_relations(self, tol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """One influence pass and one signalling pass."""
        return self._influence_relation(tol), self.wire_signalling(tol)

    def _hierarchy(self, probe, frm, to, causal: bool, tol: float = 0.0):
        """``(signalling, witness)``; with no signalling the memory form is built and verified."""
        sig = self.signals(frm, to, tol)
        if not sig:
            self._memory(frm, to)
        return sig, (self._witness(frm, to) if causal else None)

    def _memory(self, frm: tuple[str, ...], idle: tuple[str, ...]):
        """The memory form ``(env, v, w, discarded)``, with no signalling ``frm -> idle``, read
        off the table with no probe: ``w`` discards no wire."""
        b_names, ap_names = self.input.complement(frm), self.output.complement(idle)
        a_sys, b_sys = self.input.restrict(frm), self.input.restrict(b_names)
        ap_sys, bp_sys = self.output.restrict(ap_names), self.output.restrict(idle)
        env_sys = _fresh_copies(self, self.input, b_names, "_env")
        d_a, d_b, d_bp = a_sys.total_dim, b_sys.total_dim, bp_sys.total_dim

        # z[a, b] = u(a, b); the two blocks' digits are disjoint, so their indices add
        z = self.table[_grounded(self.input, frm)[:, None] + _grounded(self.input, b_names)]
        z_ap = self.output.digits(z, ap_names)

        # v copies its input into the memory and emits the idle outputs, which by
        # no-signalling depend on the B block alone
        v_table = np.arange(d_b) * d_bp + self.output.digits(z[0], idle)
        v = ClassicalInstrument(b_sys, env_sys.concat(bp_sys), v_table)
        w_table = z_ap.reshape(-1)
        w = ClassicalInstrument(a_sys.concat(env_sys), ap_sys, w_table)

        e, bp = np.divmod(v_table, d_bp)
        if not (
            np.array_equal(w_table.reshape(d_a, d_b)[:, e], z_ap)
            and (self.output.digits(z, idle) == bp).all()
        ):
            raise ConsistencyError("memory decomposition failed to recompose")
        return env_sys, v, w, composite()

    def _discard_leaves_rest_alone(self, act, bystander, tol: float = 0.0) -> bool:
        """Discarding the acting outputs leaves the ``bystander`` digits passing through."""
        passed = self.input.digits(np.arange(self.input.total_dim), bystander)
        return np.array_equal(passed, self.output.digits(self.table, bystander))

    def _inverse_nosignalling(self, frm, to, tol: float = 0.0) -> bool:
        """Exactly: ``u``'s target digits, ``frm`` grounded, at ``u^-1(z)``'s rest are ``z``'s."""
        b_names = self.input.complement(frm)
        grounded = _grounded(self.input, b_names)  # the from block in its ground state
        c_table = self.output.digits(self.table[grounded], to)
        b_of = self.input.digits(np.argsort(self.table), b_names)  # B digits of u^-1(z)
        targets = self.output.digits(np.arange(self.output.total_dim), to)
        return np.array_equal(c_table[b_of], targets)

    def _witness(self, frm: tuple[str, ...], to: tuple[str, ...]) -> tuple[str, dict]:
        """The first constant preparation breaking the target-local form, as ``(kind, detail)``."""
        d_from = self.input.select(frm).total_dim
        for j in range(d_from):
            table = (j,) * d_from
            conj = _conjugated_table(self, frm, 1, table)
            violation = _local_form_violation(conj, 1, self.output, to)
            if violation is not None:
                return "intervention", {
                    "acting_on": list(frm),
                    "target": list(to),
                    "env_dim": 1,
                    "intervention": list(table),
                    "intervention_class": "constant",
                    "violation": violation,
                }
        raise ConsistencyError("influence asserted but no constant preparation witnessed it")

    def _replay(self, kind: str, detail: dict, tol: float = 0.0) -> bool:
        """The recorded intervention still breaks the target-local form the same way."""
        if kind != "intervention":
            raise SpecError(f"a classical channel cannot replay a witness of kind {kind!r}")
        frm, env_dim = tuple(detail["acting_on"]), detail["env_dim"]
        conj = _conjugated_table(self, frm, env_dim, tuple(detail["intervention"]))
        violation = _local_form_violation(conj, env_dim, self.output, tuple(detail["target"]))
        return violation is not None and violation["type"] == detail["violation"]["type"]

    def _conjugation_matches(self, frm: tuple[str, ...], instrument) -> bool:
        """``causal.probe_conjugation_matches_evolution`` off the bare probe at ``frm``."""
        _, probe = self._probe(frm)
        from_sys = self.input.select(frm)
        d_from = from_sys.total_dim
        if frm and tuple(instrument.input.dims[-len(frm):]) != from_sys.dims:
            raise SpecError("instrument's trailing wires must match the probed block")
        d_env = instrument.input.total_dim // d_from
        d_out = self.output.total_dim
        inst = instrument.table
        # probe, intervene on (env, copy), probe again; rows env, columns (c, z)
        c1, z1 = np.divmod(probe.table, d_out)
        hit = inst[np.arange(d_env)[:, None] * d_from + c1]
        e2, c2 = np.divmod(hit, d_from)
        lhs = probe.table[c2 * d_out + z1]
        # undo, intervene on (env, real input block), evolve; the copy c passes through
        e3, z3 = (
            np.tile(a.reshape(d_env, d_out), d_from)
            for a in _conjugated_table(self, frm, d_env, inst)
        )
        rhs = np.repeat(np.arange(d_from), d_out) * d_out + z3
        defined = hit >= 0
        return (
            np.array_equal(defined, e3 >= 0)
            and bool((e2 == e3)[defined].all())
            and bool((lhs == rhs)[defined].all())
        )


def _event_array(table) -> np.ndarray:
    """An instrument table as an int64 array, the null event (``None`` or -1) as -1."""
    arr = np.asarray(table)
    if arr.dtype == object:
        arr = np.where(np.equal(arr, None), -1, arr)
    return arr.astype(np.int64)


def _conjugated_table(
    u: ClassicalChannel, frm: tuple[str, ...], env_dim: int, table
) -> tuple[np.ndarray, np.ndarray]:
    """The intervention conjugated by u, as (env', output') arrays over (env, output).

    ``table`` is read as an instrument's (``None`` or -1 the null event).
    Points run in row-major order; env' is -1 where the intervention is undefined.
    """
    d_from = u.input.select(frm).total_dim
    x = np.tile(np.argsort(u.table), env_dim)  # u^-1 of each output, once per env value
    env = np.repeat(np.arange(env_dim), u.output.total_dim)
    hits = _event_array(table)[env * d_from + u.input.digits(x, frm)]
    e2, a2 = np.divmod(hits, d_from)
    return np.where(hits < 0, -1, e2), u.table[u.input.with_digits(x, frm, a2)]


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


@dataclass(frozen=True, eq=False)
class ClassicalInstrument(_Table):
    """A sub-normalized partial function: one event of a classical test.

    ``table[x]`` is the prepared joint index, or -1 for the null event (given
    as -1 or None). Deterministic channels are total tables; an atom measures
    ``i`` and prepares ``j``, undefined elsewhere.
    """

    input: CompositeSystem
    output: CompositeSystem
    table: np.ndarray

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
        return bool((self.table >= 0).all())

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        (defined,) = np.nonzero(self.table >= 0)
        return frozenset(zip(defined.tolist(), self.table[defined].tolist()))


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
