"""Independent reference computations and the output checks built on them.

Nothing here imports the program under test. Classical references work on a
joint-index table with numpy digit arrays (big-endian mixed radix, the
program's documented convention); quantum references use the Heisenberg
picture, a different route from the program's Schrodinger-picture einsum.

Every ``check_*`` function takes the parsed ``--format json`` payload of one
command and returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

QUANTUM_TOL = 1e-7


@dataclass(frozen=True)
class Channel:
    """A channel as the benchmark wrote it: wire names, dims and its data."""

    model: str
    names_in: tuple[str, ...]
    names_out: tuple[str, ...]
    dims: tuple[int, ...]
    table: Optional[np.ndarray] = None  # classical: joint-index permutation
    matrix: Optional[np.ndarray] = None  # quantum: unitary, big-endian rows/cols

    @property
    def size(self) -> int:
        return math.prod(self.dims)


# -- classical ----------------------------------------------------------------


def _digits(index: np.ndarray, dims) -> np.ndarray:
    return np.array(np.unravel_index(index, tuple(dims)))


def _constant_along(grid: np.ndarray, axes) -> bool:
    ref = grid
    for ax in axes:
        ref = np.take(ref, [0], axis=ax)
    return bool(np.array_equal(grid, np.broadcast_to(ref, grid.shape)))


def classical_neighbourhood(table: np.ndarray, dims, probed) -> frozenset[int]:
    """Output positions on which the probe process fails to act as an identity.

    The probe sends (c, z) to (x_A, u(x with the probed digits := c)) for
    x = u^-1(z). Output wire o is idle iff its digit passes through and every
    other output (the copy included) is independent of it.
    """
    dims = tuple(dims)
    probed = sorted(probed)
    n = len(table)
    x = _digits(np.argsort(table), dims)  # x[:, z] = digits of u^-1(z)
    z = _digits(np.arange(n), dims)
    pdims = tuple(dims[p] for p in probed)
    d_a = math.prod(pdims)
    copies = _digits(np.arange(d_a), pdims)
    xs = np.repeat(x[:, None, :], d_a, axis=1)
    for r, p in enumerate(probed):
        xs[p] = copies[r][:, None]
    z2 = _digits(table[np.ravel_multi_index(tuple(xs), dims)], dims)
    old = np.ravel_multi_index(tuple(x[p] for p in probed), pdims) if probed else np.zeros(n, int)
    rest_parts = [np.broadcast_to(old, (d_a, n))] + [z2[o] for o in range(len(dims))]
    grid_shape = (d_a,) + dims
    influenced = set()
    for o in range(len(dims)):
        passes = np.array_equal(z2[o], np.broadcast_to(z[o], (d_a, n)))
        independent = passes and all(
            _constant_along(part.reshape(grid_shape), [1 + o])
            for k, part in enumerate(rest_parts)
            if k != 1 + o
        )
        if not independent:
            influenced.add(o)
    return frozenset(influenced)


def classical_signals(table: np.ndarray, dims, frm, to) -> bool:
    """Brute force: does some output digit in ``to`` vary with the ``frm`` inputs?"""
    z = _digits(table, dims)
    return any(not _constant_along(z[o].reshape(tuple(dims)), frm) for o in to)


# -- quantum -------------------------------------------------------------------


def embed(op: np.ndarray, dims, positions) -> np.ndarray:
    """``op`` acting on the wires at ``positions`` (in that order), identity elsewhere."""
    dims = tuple(dims)
    n = math.prod(dims)
    k = len(positions)
    t = np.eye(n, dtype=complex).reshape(dims + dims)
    t = np.tensordot(op.reshape(tuple(dims[p] for p in positions) * 2), t, axes=(list(range(k, 2 * k)), list(positions)))
    t = np.moveaxis(t, list(range(k)), list(positions))
    return t.reshape(n, n)


def _acts_trivially_on(m: np.ndarray, dims, positions) -> bool:
    """True iff ``m`` equals identity-on-``positions`` tensor something."""
    dims = tuple(dims)
    n = len(dims)
    others = [p for p in range(n) if p not in positions]
    t = m.reshape(dims + dims)
    t = t.transpose(list(positions) + others + [n + p for p in positions] + [n + p for p in others])
    d_i = math.prod(dims[p] for p in positions)
    d_r = m.shape[0] // d_i
    t = t.reshape(d_i, d_r, d_i, d_r)
    expected = np.einsum("ab,kl->akbl", np.eye(d_i), t[0, :, 0, :])
    return bool(np.max(np.abs(t - expected)) <= QUANTUM_TOL)


def quantum_signals(u: np.ndarray, dims, frm, to) -> bool:
    """Heisenberg picture: some observable on ``to``, evolved back, acts on ``frm``."""
    d_to = math.prod(dims[p] for p in to)
    udag = u.conj().T
    for a in range(d_to):
        for b in range(d_to):
            unit = np.zeros((d_to, d_to), dtype=complex)
            unit[a, b] = 1.0
            back = udag @ embed(unit, dims, list(to)) @ u
            if not _acts_trivially_on(back, dims, list(frm)):
                return True
    return False


def quantum_factors(u: np.ndarray, dims, idle) -> bool:
    """True iff ``u`` is (something) tensor identity on the ``idle`` wires."""
    return _acts_trivially_on(u, dims, list(idle))


# -- rings ---------------------------------------------------------------------


def ring_step_table(cells: int, cell_dim: int, layers) -> np.ndarray:
    """Joint-index table of one step: ``layers`` is [[(gate_table, arity, at)]]."""
    dims = (cell_dim,) * cells
    d = _digits(np.arange(cell_dim**cells), dims)
    for layer in layers:
        for gate, arity, at in layer:
            span = [(at + k) % cells for k in range(arity)]
            local = np.ravel_multi_index(tuple(d[span]), (cell_dim,) * arity)
            d[span] = _digits(np.asarray(gate)[local], (cell_dim,) * arity)
    return np.ravel_multi_index(tuple(d), dims)


def ring_step_unitary(cells: int, cell_dim: int, layers) -> np.ndarray:
    """Unitary of one step: ``layers`` is [[(gate_matrix, arity, at)]]."""
    dims = (cell_dim,) * cells
    u = np.eye(cell_dim**cells, dtype=complex)
    for layer in layers:
        for gate, arity, at in layer:
            span = [(at + k) % cells for k in range(arity)]
            u = embed(np.asarray(gate, dtype=complex), dims, span) @ u
    return u


def ring_reference(cells: int, cell_dim: int, step, steps: int, model: str) -> list[dict]:
    """Per t = 1..steps: each cell's causal neighbourhood and signalling set."""
    dims = (cell_dim,) * cells
    rows = []
    power = step
    for t in range(1, steps + 1):
        if t > 1:
            power = step[power] if model == "classical" else step @ power
        causal, sig = [], []
        for c in range(cells):
            if model == "classical":
                hood = classical_neighbourhood(power, dims, [c])
                s = {o for o in range(cells) if classical_signals(power, dims, [c], [o])}
            else:
                s = {o for o in range(cells) if quantum_signals(power, dims, [c], [o])}
                hood = frozenset(s)
            causal.append(frozenset(hood))
            sig.append(frozenset(s))
        rows.append({"causal": causal, "signalling": sig})
    return rows


# -- checks --------------------------------------------------------------------


def _cell(i: int) -> str:
    return f"c{i}"


def check_ca(payload: dict, ref_rows: list[dict], classical_rows: Optional[list[dict]]) -> list[str]:
    """``ca`` output against the reference rows (and, for quantum permutation
    rings, against the classical neighbourhoods of the same table)."""
    problems = []
    cells = len(ref_rows[0]["causal"])
    last = ref_rows[-1]
    hoods = payload.get("neighbourhoods", {})
    if sorted(hoods) != sorted(_cell(c) for c in range(cells)):
        return [f"cells listed {sorted(hoods)}"]
    for c in range(cells):
        got = hoods[_cell(c)]
        want_c = sorted(_cell(o) for o in last["causal"][c])
        want_s = sorted(_cell(o) for o in last["signalling"][c])
        if got["causal"] != want_c:
            problems.append(f"{_cell(c)} causal {got['causal']} != {want_c}")
        if got["signalling"] != want_s:
            problems.append(f"{_cell(c)} signalling {got['signalling']} != {want_s}")
        if classical_rows is not None:
            want_cl = sorted(_cell(o) for o in classical_rows[-1]["causal"][c])
            if got["causal"] != want_cl:
                problems.append(f"{_cell(c)} quantum {got['causal']} != classical {want_cl}")
    cones = payload.get("cones", [])
    if [row["step"] for row in cones] != list(range(1, len(ref_rows) + 1)):
        return problems + ["cone steps"]
    for row, ref in zip(cones, ref_rows):
        if row["causal_sizes"] != [len(h) for h in ref["causal"]]:
            problems.append(f"step {row['step']} causal sizes {row['causal_sizes']}")
        if row["signalling_sizes"] != [len(s) for s in ref["signalling"]]:
            problems.append(f"step {row['step']} signalling sizes {row['signalling_sizes']}")
    return problems


def influence(ch: Channel, frm, to) -> bool:
    """Reference causal influence between positional wire blocks."""
    if ch.model == "classical":
        return bool(classical_neighbourhood(ch.table, ch.dims, frm) & set(to))
    return quantum_signals(ch.matrix, ch.dims, frm, to)


def signals(ch: Channel, frm, to) -> bool:
    if ch.model == "classical":
        return classical_signals(ch.table, ch.dims, frm, to)
    return quantum_signals(ch.matrix, ch.dims, frm, to)


def check_analyze(payload: dict, ch: Channel) -> list[str]:
    problems = []
    if payload.get("model") != ch.model or payload.get("consistent") is not True:
        problems.append("model or consistency flag")
    if payload.get("inputs") != list(ch.names_in) or payload.get("outputs") != list(ch.names_out):
        return problems + ["wire lists"]
    for i, name_in in enumerate(ch.names_in):
        if ch.model == "classical":
            hood = classical_neighbourhood(ch.table, ch.dims, [i])
        else:
            hood = {o for o in range(len(ch.dims)) if quantum_signals(ch.matrix, ch.dims, [i], [o])}
        for o, name_out in enumerate(ch.names_out):
            got_c = payload["causal"][name_in][name_out]
            got_s = payload["signalling"][name_in][name_out]
            if got_c != (o in hood):
                problems.append(f"causal {name_in}->{name_out} = {got_c}")
            if got_s != signals(ch, [i], [o]):
                problems.append(f"signalling {name_in}->{name_out} = {got_s}")
            if ch.model == "quantum" and got_c != got_s:
                problems.append(f"quantum influence != signalling at {name_in}->{name_out}")
        want = [ch.names_out[o] for o in sorted(hood)]
        if payload["neighbourhoods"][name_in] != want:
            problems.append(f"neighbourhood of {name_in}")
    return problems


def check_hierarchy(payload: dict, ch: Channel, frm, to) -> list[str]:
    problems = []
    causal = payload.get("causal_influence")
    memory = payload.get("memory_decomposable")
    sig = payload.get("signalling")
    if payload.get("from") != [ch.names_in[p] for p in frm]:
        problems.append("from block")
    if payload.get("to") != [ch.names_out[p] for p in to]:
        problems.append("to block")
    chain = (causal or memory) and (not memory or not sig)
    if payload.get("consistent") is not True or not chain:
        problems.append("implication chain violated")
    if causal != influence(ch, frm, to):
        problems.append(f"causal influence {causal}")
    if sig != signals(ch, frm, to):
        problems.append(f"signalling {sig}")
    if memory != (not sig):
        problems.append(f"memory decomposable {memory} with signalling {sig}")
    if ch.model == "quantum" and causal != sig:
        problems.append("quantum influence != signalling")
    witness = payload.get("witness")
    if (witness is not None) != bool(causal):
        problems.append("witness present iff influence")
    elif witness is not None:
        kind = "intervention" if ch.model == "classical" else "factorization-defect"
        if witness.get("kind") != kind:
            problems.append(f"witness kind {witness.get('kind')}")
    return problems


def check_niwd(payload: dict, ch: Channel, acting) -> list[str]:
    problems = []
    rest = [p for p in range(len(ch.dims)) if p not in acting]
    if payload.get("acting") != [ch.names_in[p] for p in acting]:
        problems.append("acting block")
    if payload.get("bystander") != [ch.names_in[p] for p in rest]:
        problems.append("bystander block")
    if ch.model == "classical":
        x = _digits(np.arange(ch.size), ch.dims)
        z = _digits(ch.table, ch.dims)
        premise = bool(all(np.array_equal(x[p], z[p]) for p in rest))
        factorizes = premise and not classical_signals(ch.table, ch.dims, rest, acting)
    else:
        u, d_rest = ch.matrix, math.prod(ch.dims[p] for p in rest)
        premise = True
        for a in range(d_rest):
            for b in range(d_rest):
                unit = np.zeros((d_rest, d_rest), dtype=complex)
                unit[a, b] = 1.0
                e = embed(unit, ch.dims, rest)
                premise &= bool(np.max(np.abs(u.conj().T @ e @ u - e)) <= QUANTUM_TOL)
        factorizes = quantum_factors(ch.matrix, ch.dims, rest)
        if premise != factorizes:
            problems.append("quantum premise without factorization")
    if payload.get("premise_holds") != premise:
        problems.append(f"premise {payload.get('premise_holds')}")
    if payload.get("factorizes") != factorizes:
        problems.append(f"factorizes {payload.get('factorizes')}")
    if premise and factorizes:
        verdict, forced = "no-interaction", None
    elif premise:
        verdict, forced = "interaction-without-disturbance witness", True
        if not influence(ch, acting, rest):
            problems.append("witness without reference influence")
    else:
        verdict, forced = "disturbing", None
    if payload.get("verdict") != verdict or payload.get("forced_influence") != forced:
        problems.append(f"verdict {payload.get('verdict')} / {payload.get('forced_influence')}")
    return problems


def check_oracle(payload: dict, ch: Channel, full: bool) -> list[str]:
    """Soundness on every pair; with ``full``, agreement with the reference too."""
    problems = []
    pairs = payload.get("pairs", [])
    want_pairs = [(i, o) for i in ch.names_in for o in ch.names_out]
    if [(p["from"], p["to"]) for p in pairs] != want_pairs:
        return ["pair list"]
    all_sound = all_agree = True
    for p in pairs:
        i, o = ch.names_in.index(p["from"]), ch.names_out.index(p["to"])
        ref = influence(ch, [i], [o])
        if p["t_process"] != ref:
            problems.append(f"probe verdict {p['from']}->{p['to']}")
        if p["oracle"] and not ref:
            problems.append(f"unsound oracle verdict {p['from']}->{p['to']}")
        if full and p["oracle"] != ref:
            problems.append(f"oracle disagrees at {p['from']}->{p['to']}")
        status = "agree" if p["oracle"] == p["t_process"] else (
            "budget-limited" if p["t_process"] else "soundness-violation"
        )
        if p["status"] != status:
            problems.append(f"status {p['status']}")
        all_sound &= status != "soundness-violation"
        all_agree &= status == "agree"
    if payload.get("sound") is not True or not all_sound:
        problems.append("report not sound")
    if payload.get("full_agreement") != all_agree:
        problems.append("full_agreement flag")
    return problems
