"""The quantum memory check: the legs against the evolution, as one operator identity.

The library checks ``(W x 1_B')(1_A x V) = |0>_C x U`` entrywise.
``reference_verify`` is the per-state form of the check, kept as the
reference: a loop over the d_a**2 * d_b**2 product density matrices, with
dense products of the full dimension for each.
"""

import collections

import numpy as np
import pytest

from causal_lens import causal, quantum
from causal_lens.causal import (
    _grounded,
    embed_on,
    hierarchy_report,
    memory_decomposition,
    reorder_wires,
)
from causal_lens.errors import ConsistencyError
from causal_lens.quantum import UnitaryChannel, _signalling_delta, _signalling_terms
from causal_lens.systems import composite


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
    check = causal._verify_quantum_memory if verify == "library" else reference_verify

    def perturbed(*args):
        *head, v_iso, t_mat, tol = args
        bump = np.zeros_like(v_iso if leg == "v_iso" else t_mat)
        bump[0, 0] = eps
        if leg == "v_iso":
            v_iso = v_iso + bump
        else:
            t_mat = t_mat + bump
        check(*head, v_iso, t_mat, tol)

    monkeypatch.setattr(causal, "_verify_quantum_memory", perturbed)
    u = no_signalling_channel()
    if eps:
        with pytest.raises(ConsistencyError, match="failed to recompose"):
            memory_decomposition(u, ["A"], ["B"])
    else:
        assert memory_decomposition(u, ["A"], ["B"]) is not None


def test_a_global_phase_on_the_factor_recomposes_states_but_fails_the_identity(monkeypatch):
    # e^{iφ} W gives the same legs on states, not the same operator
    library = causal._verify_quantum_memory
    calls = []
    monkeypatch.setattr(causal, "_verify_quantum_memory", lambda *args: calls.append(args))
    assert memory_decomposition(no_signalling_channel(), ["A"], ["B"]) is not None
    ((*head, v_iso, t_mat, tol),) = calls
    phased = np.exp(0.3j) * t_mat
    reference_verify(*head, v_iso, phased, tol)
    with pytest.raises(ConsistencyError, match="failed to recompose"):
        library(*head, v_iso, phased, tol)


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
def test_the_legs_recompose_the_evolution_through_apply(dims, first, then, frm, idle):
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
    for _ in range(3):
        rho_a, rho_b = random_state(d_a, rng), random_state(d_b, rng)
        want = grouped @ np.kron(rho_a, rho_b) @ grouped.conj().T
        sigma = dec.v.apply(rho_b).reshape(d_ap, d_bp, d_ap, d_bp)  # on (env, B')
        got = np.zeros((d_ap, d_bp, d_ap, d_bp), dtype=complex)
        for k in range(d_bp):
            for l in range(d_bp):
                got[:, k, :, l] = dec.w.apply(np.kron(rho_a, sigma[:, k, :, l]))
        assert np.max(np.abs(got.reshape(want.shape) - want)) <= 1e-12


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
    disagreements = []
    library = causal._verify_quantum_memory

    def both(*args):
        verdicts = []
        for check in (reference_verify, library):
            try:
                check(*args)
                verdicts.append(None)
            except ConsistencyError as exc:
                verdicts.append(str(exc))
        if verdicts[0] != verdicts[1]:
            disagreements.append(verdicts)
        if verdicts[1] is not None:
            raise ConsistencyError(verdicts[1])

    monkeypatch.setattr(causal, "_verify_quantum_memory", both)
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
    residuals, checked = [], []
    quantum_memory = causal._quantum_memory

    def recording(u, frm, idle, tilde, eps, t_mat):
        residuals.append(eps)
        return quantum_memory(u, frm, idle, tilde, eps, t_mat)

    def verify(*args):
        *legs, check_tol = args
        checked.append((identity_error(*legs), residuals[-1]))

    monkeypatch.setattr(causal, "_quantum_memory", recording)
    monkeypatch.setattr(causal, "_verify_quantum_memory", verify)
    for u in sweep_channels(range(0, 800, 17)):
        to = u.output.names[-1]
        delta = _signalling_delta(_signalling_terms(u, ("A",), (to,)))
        assert memory_decomposition(u, ["A"], [to], delta * 1.01) is not None
    assert len(checked) == 144
    assert all(err <= eps * (1 + 1e-9) + 1e-12 for err, eps in checked)
    assert min(eps for _, eps in checked) > 0
