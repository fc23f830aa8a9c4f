"""The quantum memory check: the legs against the evolution, as one operator identity.

The library checks ``(W x 1_B')(1_A x V) = |0>_C x U`` entrywise, on the
grouped ``U`` that ``V`` was read off. ``reference_verify`` is the per-state
form of the check, kept as the reference: a loop over the d_a**2 * d_b**2
product density matrices, with dense products of the full dimension for each,
off ``U`` and the wire names alone.
"""

import collections

import numpy as np
import pytest

from causal_lens import quantum
from causal_lens.causal import hierarchy_report, memory_decomposition
from causal_lens.errors import ConsistencyError
from causal_lens.quantum import UnitaryChannel, _signalling_delta, _signalling_terms
from causal_lens.systems import _grounded, composite

from wiring import embed_on, reorder_wires


def reference_states(dim: int) -> list[np.ndarray]:
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


def reference_verify(u, frm, b_names, ap_names, idle, v_iso, t_mat, tol):
    d_a = u.input.select(frm).total_dim
    d_b = u.input.select(b_names).total_dim
    d_ap = u.output.select(ap_names).total_dim
    d_bp = u.output.select(idle).total_dim
    p = u.input.digits(np.arange(u.input.total_dim), frm + b_names)  # system -> (A, B)
    q = _grounded(u.output, ap_names + idle)  # (A', B') -> system
    big_w = np.kron(t_mat, np.eye(d_bp))
    check_tol = max(tol, 1e-9)
    for rho_a in reference_states(d_a):
        for rho_b in reference_states(d_b):
            x_grouped = np.kron(rho_a, rho_b)
            x_orig = x_grouped[np.ix_(p, p)]
            lhs = (u.matrix @ x_orig @ u.matrix.conj().T)[np.ix_(q, q)]
            tau = np.kron(rho_a, v_iso @ rho_b @ v_iso.conj().T)
            moved = big_w @ tau @ big_w.conj().T
            t4 = moved.reshape(d_a, d_ap * d_bp, d_a, d_ap * d_bp)
            rhs = np.trace(t4, axis1=0, axis2=2)
            if np.max(np.abs(lhs - rhs)) > check_tol:
                raise ConsistencyError("quantum memory decomposition failed to recompose")


def reference_head(u, frm, idle):
    """The arguments of ``reference_verify`` before the legs: ``u`` and its wire groups."""
    return u, frm, u.input.complement(frm), u.output.complement(idle), idle


def grouped(u, frm, b_names, ap_names, idle):
    """The one argument of the library check before the legs: ``U`` grouped [A', B', A, B]."""
    return quantum._grouped(u.matrix, u.output, u.input, ap_names, frm)


def no_signalling_channel() -> UnitaryChannel:
    """A unitary on (A, C) beside one on B, wires listed (A, B, C): A cannot signal to B."""
    rng = np.random.default_rng(5)
    ac = quantum.random_unitary(composite(("A", 2), ("C", 2)), rng)
    u = ac.tensor(quantum.random_unitary(composite(("B", 3)), rng))
    return reorder_wires(u, input_order=["A", "B", "C"], output_order=["A", "B", "C"])


@pytest.mark.parametrize("leg", ["v_iso", "t_mat"])
@pytest.mark.parametrize("verify", ["library", "reference"])
@pytest.mark.parametrize("eps", [0.0, 1e-6])
def test_a_perturbed_leg_fails_to_recompose(monkeypatch, leg, verify, eps):
    u = no_signalling_channel()
    library, head = quantum._verify_quantum_memory, reference_head(u, ("A",), ("B",))

    def perturbed(u_g, v_iso, t_mat, tol):
        bump = np.zeros_like(v_iso if leg == "v_iso" else t_mat)
        bump[0, 0] = eps
        if leg == "v_iso":
            v_iso = v_iso + bump
        else:
            t_mat = t_mat + bump
        if verify == "library":
            library(u_g, v_iso, t_mat, tol)
        else:
            reference_verify(*head, v_iso, t_mat, tol)

    monkeypatch.setattr(quantum, "_verify_quantum_memory", perturbed)
    if eps:
        with pytest.raises(ConsistencyError, match="failed to recompose"):
            memory_decomposition(u, ["A"], ["B"])
    else:
        assert memory_decomposition(u, ["A"], ["B"]) is not None


def test_a_global_phase_on_the_factor_recomposes_states_but_fails_the_identity():
    # e^{iφ} W gives the same legs on states, not the same operator
    u = no_signalling_channel()
    dec = memory_decomposition(u, ["A"], ["B"])
    head = reference_head(u, ("A",), ("B",))
    tol = quantum.DEFAULT_TOL
    quantum._verify_quantum_memory(grouped(*head), dec.v, dec.w, tol)
    phased = np.exp(0.3j) * dec.w
    reference_verify(*head, dec.v, phased, tol)
    with pytest.raises(ConsistencyError, match="failed to recompose"):
        quantum._verify_quantum_memory(grouped(*head), dec.v, phased, tol)


def random_state(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


@pytest.mark.parametrize(
    "dims,first,then,frm,idle",
    [
        ((2, 3, 2), "BC", "AB", "A", "C"),
        ((2, 3, 2), "AB", "BC", "C", "A"),
        ((2, 2, 2, 2), "BCD", "AB", "A", "CD"),
        ((2,) * 6, "BCDEF", "ABC", "A", "DEF"),
    ],
    ids=["one-idle-wire", "one-idle-wire-first", "two-idle-wires", "six-qubits"],
)
def test_the_leg_matrices_recompose_the_evolution_on_states(dims, first, then, frm, idle):
    # u runs a gate on ``first``, then one on ``then``: ``frm`` reaches no idle output
    rng = np.random.default_rng([49, len(dims), ord(frm)])
    system = composite(*zip("ABCDEF", dims))
    u = embed_on(quantum.random_unitary(system.select(list(then)), rng), system).compose(
        embed_on(quantum.random_unitary(system.select(list(first)), rng), system)
    )
    dec = memory_decomposition(u, list(frm), list(idle))
    b_names, ap_names = u.input.complement(frm), u.output.complement(idle)
    d_a, d_b = u.input.select(frm).total_dim, u.input.select(b_names).total_dim
    d_ap, d_bp = u.output.select(ap_names).total_dim, u.output.select(idle).total_dim
    assert dec.env.total_dim == d_ap
    grouped = reorder_wires(u, list(frm) + list(b_names), list(ap_names) + list(idle)).matrix
    # W on (A, env) beside B', then the discarded copies traced out
    big_w, d_c = np.kron(dec.w, np.eye(d_bp)), dec.discarded.total_dim
    for _ in range(3):
        rho_a, rho_b = random_state(d_a, rng), random_state(d_b, rng)
        want = grouped @ np.kron(rho_a, rho_b) @ grouped.conj().T
        sigma = dec.v @ rho_b @ dec.v.conj().T  # on (env, B')
        moved = big_w @ np.kron(rho_a, sigma) @ big_w.conj().T  # on (discarded, A', B')
        got = np.trace(moved.reshape(d_c, len(want), d_c, len(want)), axis1=0, axis2=2)
        assert np.max(np.abs(got - want)) <= 1e-12


def sweep_channels(seeds):
    """Near-identity unitaries ``exp(i eps H)`` on 2-3 wires, with a random Hermitian ``H``."""
    shapes = [(3, 2), (2, 2), (2, 2, 2), (2, 3, 2)]
    for seed in seeds:
        dims = shapes[seed % 4]
        system = composite(*zip("ABC", dims))
        n = system.total_dim
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        w, v = np.linalg.eigh((z + z.conj().T) / 2)
        for eps in (0.003, 0.03, 0.1):
            yield UnitaryChannel(system, system, (v * np.exp(1j * eps * w)) @ v.conj().T)


def outcome(u, to, tol):
    """The verdict triple of ``hierarchy_report`` from A to ``to``, or its consistency error."""
    try:
        r = hierarchy_report(u, ["A"], [to], tol)
    except ConsistencyError as exc:
        return str(exc)
    return (r.causal_influence, r.memory_decomposable, r.signalling)


def test_near_tolerance_sweep_matches_the_per_state_reference(monkeypatch):
    # Both checks run on the same legs at every call. The check is the last step
    # of a memory decomposition, so the reports agree iff every call agrees.
    disagreements, heads = [], []
    library, quantum_memory = quantum._verify_quantum_memory, quantum._quantum_memory

    def recording(u, frm, idle, tilde, eps, t_mat):
        heads.append(reference_head(u, frm, idle))
        return quantum_memory(u, frm, idle, tilde, eps, t_mat)

    def both(u_g, *legs):
        verdicts = []
        for check, head in ((reference_verify, heads[-1]), (library, (u_g,))):
            try:
                check(*head, *legs)
                verdicts.append(None)
            except ConsistencyError as exc:
                verdicts.append(str(exc))
        if verdicts[0] != verdicts[1]:
            disagreements.append(verdicts)
        if verdicts[1] is not None:
            raise ConsistencyError(verdicts[1])

    monkeypatch.setattr(quantum, "_quantum_memory", recording)
    monkeypatch.setattr(quantum, "_verify_quantum_memory", both)
    seen = collections.Counter()
    # every 17th seed of 0-799 (all four wire shapes), tol around the block's delta
    for u in sweep_channels(range(0, 800, 17)):
        to = u.output.names[-1]
        delta = _signalling_delta(_signalling_terms(u, ("A",), (to,)))
        for factor in (0.5, 1.01, 1.5, 3, 10):
            got = outcome(u, to, delta * factor)
            seen["ok" if isinstance(got, tuple) else got] += 1
    assert disagreements == []
    # valid input near the tolerance never reads as an internal inconsistency
    assert set(seen) == {"ok"}


def identity_error(u, frm, b_names, ap_names, idle, v_iso, t_mat):
    """``max |(W x 1_B')(1_A x V) - |0>_C x U|``, by dense Kronecker products."""
    d_a = u.input.select(frm).total_dim
    d_bp = u.output.select(idle).total_dim
    p = u.input.digits(np.arange(u.input.total_dim), frm + b_names)  # system -> (A, B)
    q = _grounded(u.output, ap_names + idle)  # (A', B') -> system
    lhs = np.kron(t_mat, np.eye(d_bp)) @ np.kron(np.eye(d_a), v_iso)
    rhs = np.zeros_like(lhs)
    rhs[: len(q)] = u.matrix[q][:, np.argsort(p)]
    return np.max(np.abs(lhs - rhs))


def test_the_identity_error_is_within_the_probe_residual(monkeypatch):
    # the sides differ by -R tilde (|0> x U), so no entry exceeds ε = ‖R‖_F
    residuals, heads, checked = [], [], []
    quantum_memory = quantum._quantum_memory

    def recording(u, frm, idle, tilde, eps, t_mat):
        residuals.append(eps)
        heads.append(reference_head(u, frm, idle))
        return quantum_memory(u, frm, idle, tilde, eps, t_mat)

    def verify(u_g, v_iso, t_mat, check_tol):
        checked.append((identity_error(*heads[-1], v_iso, t_mat), residuals[-1]))

    monkeypatch.setattr(quantum, "_quantum_memory", recording)
    monkeypatch.setattr(quantum, "_verify_quantum_memory", verify)
    for u in sweep_channels(range(0, 800, 17)):
        to = u.output.names[-1]
        delta = _signalling_delta(_signalling_terms(u, ("A",), (to,)))
        assert memory_decomposition(u, ["A"], [to], delta * 1.01) is not None
    assert len(checked) == 144
    assert all(err <= eps * (1 + 1e-9) + 1e-12 for err, eps in checked)
    assert min(eps for _, eps in checked) > 0


def test_the_returned_legs_are_the_verified_legs(monkeypatch):
    checked = []
    library = quantum._verify_quantum_memory

    def spy(*args):
        checked.append(args)
        library(*args)

    monkeypatch.setattr(quantum, "_verify_quantum_memory", spy)
    for u in sweep_channels(range(0, 800, 17)):
        to = u.output.names[-1]
        delta = _signalling_delta(_signalling_terms(u, ("A",), (to,)))
        before = len(checked)
        dec = memory_decomposition(u, ["A"], [to], delta * 1.01)
        assert len(checked) == before + 1
        *_, v_iso, t_mat, _ = checked[-1]
        assert np.array_equal(dec.v, v_iso) and np.array_equal(dec.w, t_mat)
    assert len(checked) == 144


def exact_case(name):
    """``(u, from, idle)`` of an exact input without signalling."""
    rng = np.random.default_rng(53)
    a, b = composite(("A", 2)), composite(("B", 3))
    if name == "swap":  # the memory wire carries B, so neither leg is trivial
        return quantum.swap_gate(), ("A",), ("A",)
    if name == "identity":
        return UnitaryChannel.identity(a.concat(b)), ("A",), ("B",)
    return quantum.random_unitary(a, rng).tensor(quantum.random_unitary(b, rng)), ("A",), ("B",)


@pytest.mark.parametrize("name", ["swap", "identity", "product"])
def test_the_fields_alone_recompose_an_exact_evolution(name):
    u, frm, idle = exact_case(name)
    dec = memory_decomposition(u, frm, idle)
    b_names, ap_names = u.input.complement(frm), u.output.complement(idle)
    assert identity_error(u, frm, b_names, ap_names, idle, dec.v, dec.w) <= 1e-12
    # the legs are data: read-only, shaped (env, B') by B and (discarded, A') by (A, env)
    for leg in (dec.v, dec.w):
        assert not leg.flags.writeable
        with pytest.raises(ValueError):
            leg[0, 0] = 0.0
    d_b, d_bp = u.input.select(b_names).total_dim, u.output.select(idle).total_dim
    d_a, d_ap = u.input.select(frm).total_dim, u.output.select(ap_names).total_dim
    assert dec.v.shape == (dec.env.total_dim * d_bp, d_b)
    assert dec.w.shape == (dec.discarded.total_dim * d_ap, d_a * dec.env.total_dim)
    assert dec.discarded.dims == u.input.select(frm).dims


@pytest.mark.parametrize("report", [memory_decomposition, hierarchy_report])
def test_the_memory_check_reuses_the_regroup_v_is_read_off(monkeypatch, report):
    # U grouped [A', B', A, B] is formed once: V is read off it, and the check reads it
    calls = []
    regroup = quantum._grouped

    def spy(*args):
        calls.append(args)
        return regroup(*args)

    monkeypatch.setattr(quantum, "_grouped", spy)
    u = no_signalling_channel()
    report(u, ["A"], ["B"])
    assert len(calls) == 1
