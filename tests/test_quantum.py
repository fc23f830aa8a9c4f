import warnings
from pathlib import Path

import numpy as np
import pytest

from causal_lens.automata import build_ring
from causal_lens.cli import load_channel_file, load_rule_file
from causal_lens.errors import SpecError
from causal_lens.quantum import (
    UnitaryChannel,
    cnot,
    from_classical,
    hadamard,
    random_unitary,
    swap_gate,
)
from causal_lens import classical, quantum
from causal_lens.systems import composite

QUBITS = composite(("A", 2), ("B", 2))
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_cnot_squares_to_identity():
    u = cnot()
    assert np.allclose(u.compose(u).matrix, np.eye(4), atol=1e-9)


def test_unitary_times_dagger_is_identity():
    u = random_unitary(QUBITS, np.random.default_rng(0))
    assert np.max(np.abs(u.compose(u.invert()).matrix - np.eye(4))) <= 1e-9
    assert np.max(np.abs(u.invert().compose(u).matrix - np.eye(4))) <= 1e-9


def test_hadamard_squared():
    hi = hadamard().tensor(UnitaryChannel.identity(composite(("B", 2))))
    assert np.allclose(hi.compose(hi).matrix, np.eye(4), atol=1e-12)


def test_dagger_cnot_is_cnot():
    # real symmetric permutation matrix
    assert np.allclose(cnot().invert().matrix, cnot().matrix)


def test_tensor_identity():
    i2 = UnitaryChannel.identity(composite(("A", 2)))
    i2b = UnitaryChannel.identity(composite(("B", 2)))
    assert np.allclose(i2.tensor(i2b).matrix, np.eye(4))


def test_unitarity_certificate_rejects():
    with pytest.raises(SpecError):
        UnitaryChannel(composite(("A", 2)), composite(("A", 2)), np.array([[1, 0], [0, 2.0]]))


def certificate_failure(u):
    """The certificate's message on ``u``, which must fail it without a warning."""
    bit = composite(("A", 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpecError, match="unitarity certificate failed") as failed:
            UnitaryChannel(bit, bit, u)
    return str(failed.value)


@pytest.mark.parametrize(
    "value,dtype",
    [pytest.param(v, complex, id=str(v)) for v in (np.nan, np.inf, -np.inf)]
    + [pytest.param(complex(0.0, np.nan), complex, id="nanj")]
    + [pytest.param(v, float, id=f"{v}-float64") for v in (np.nan, np.inf, -np.inf)],
)
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
def test_a_non_finite_entry_fails_the_unitarity_certificate(value, dtype, entry):
    u = np.eye(2, dtype=dtype)
    u[entry] = u[entry[::-1]] = value  # Hermitian but for the non-finite value
    message = certificate_failure(u)
    if dtype is float:  # the real path reports what the complex one does
        assert message == certificate_failure(u.astype(complex))


@pytest.mark.parametrize("second", [1, 1j], ids=["float", "complex"])
def test_the_certificate_fails_at_a_defect_of_2e_9_and_holds_at_5e_10(second):
    # |U+U - I| is (1 + e)**2 - 1 on the first entry, against DEFAULT_TOL = 1e-9
    message = certificate_failure(np.diag([1 + 1e-9, second]))
    assert message == "unitarity certificate failed: max |U+U - I| = 2.000e-09"
    bit = composite(("A", 2))
    u = UnitaryChannel(bit, bit, np.diag([1 + 2.5e-10, second]))
    assert u.matrix.dtype == (np.float64 if second == 1 else np.complex128)


@pytest.mark.parametrize(
    "matrix",
    [np.eye(2), np.eye(2, dtype=int), np.eye(2, dtype=complex), np.diag([1, 1j])],
    ids=["float", "int", "complex", "phase-gate"],
)
def test_the_callers_matrix_stays_writeable_unchanged_and_unshared(matrix):
    bit = composite(("A", 2))
    before = matrix.copy()
    u = UnitaryChannel(bit, bit, matrix)
    assert matrix.flags.writeable
    assert matrix.dtype == before.dtype and np.array_equal(matrix, before)
    assert not np.shares_memory(matrix, u.matrix)


def signed_zero_imaginary():
    m = np.eye(2, dtype=complex)
    m.imag[0, 1] = m.imag[1, 1] = -0.0
    assert np.signbit(m.imag).any()
    return m


@pytest.mark.parametrize(
    "matrix,real",
    [
        (np.eye(2), True),
        (np.eye(2, dtype=int), True),
        (np.eye(2, dtype=complex), True),
        (signed_zero_imaginary(), True),
        ([[0, 1], [1, 0]], True),
        (np.diag([1, 1j]), False),
        (np.diag([1, 1 + 1e-300j]), False),
        (np.array([[0, 1j], [1j, 0]]), False),
        (np.exp(0.3j) * np.eye(2), False),
    ],
    ids=["float", "int", "complex-zero", "signed-zero", "list", "phase-gate", "tiny-imag",
         "imaginary-only", "global-phase"],
)
def test_matrix_is_float64_iff_no_entry_has_a_nonzero_imaginary_part(matrix, real):
    bit = composite(("A", 2))
    u = UnitaryChannel(bit, bit, matrix)
    assert u.matrix.dtype == (np.float64 if real else np.complex128)
    assert np.array_equal(u.matrix, np.asarray(matrix))
    assert not u.matrix.flags.writeable and u.matrix.flags.c_contiguous


def real_channels():
    cell_dim, layers = load_rule_file(str(FIXTURES / "staggered_cnot_ring.json"), "quantum")
    step = build_ring(layers, 6, cell_dim, model="quantum").step
    h = hadamard()
    mixed = [[(h, 0), (cnot(), 1)], [(cnot(), 0), (h, 2)]]
    yield "hadamard", h
    yield "cnot", cnot()
    yield "swap", swap_gate(3)
    yield "identity", UnitaryChannel.identity(QUBITS)
    yield "classical file as quantum", load_channel_file(str(FIXTURES / "cnot.json"), "quantum")
    yield "quantum file", load_channel_file(str(FIXTURES / "cnot_quantum.json"))
    yield "ring step", step
    yield "composed steps", step.compose(step)
    yield "hadamard ring step", build_ring(mixed, 3, 2, model="quantum").step
    hh = h.tensor(hadamard("B"))
    yield "composed gates", hh.compose(cnot())
    yield "inverse", hh.compose(cnot()).invert()
    yield "probe factor", h.tensor(UnitaryChannel.identity(composite(("B", 2)))).factors_as_identity(["B"])


@pytest.mark.parametrize("u", [pytest.param(u, id=name) for name, u in real_channels()])
def test_real_gates_files_ring_steps_and_their_algebra_stay_real(u):
    assert u.matrix.dtype == np.float64


def test_a_complex_gate_keeps_its_compositions_complex():
    u = random_unitary(QUBITS, np.random.default_rng(5))
    assert u.matrix.dtype == np.complex128
    assert u.compose(cnot()).matrix.dtype == cnot().compose(u).matrix.dtype == np.complex128


def test_from_classical_matches_table():
    k = classical.cnot()
    u = from_classical(k)
    for x in range(4):
        col = u.matrix[:, x]
        assert col[k.table[x]] == 1.0 and np.sum(np.abs(col)) == 1.0


def pure(vec):
    """The density matrix of the normalised state vector ``vec``."""
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def test_signals_cnot_kickback():
    u = cnot(out_names=("A'", "B'"))
    assert u.signals(["B"], ["A'"])  # the quantum target kicks back on the control
    assert u.signals(["A"], ["B'"])


def test_signals_identity_disjoint_false():
    ident = UnitaryChannel.identity(QUBITS).with_names(output_names=("A'", "B'"))
    assert not ident.signals(["A"], ["B'"])
    assert not ident.signals(["B"], ["A'"])


def test_signals_swap():
    u = swap_gate(out_names=("A'", "B'"))
    assert u.signals(["A"], ["B'"])
    assert not u.signals(["A"], ["A'"])


def test_signals_invariant_under_local_unitaries():
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = random_unitary(QUBITS, rng)
        pre = u.compose(UnitaryChannel.identity(composite(("A", 2))).tensor(
            random_unitary(composite(("B", 2)), rng)))
        post = random_unitary(composite(("A", 2)), rng).tensor(
            UnitaryChannel.identity(composite(("B", 2)))).compose(u)
        base = u.signals(["A"], ["A"])
        assert pre.signals(["A"], ["A"]) == base
        assert post.signals(["A"], ["A"]) == base


def test_no_signalling_verdict_matches_state_simulation():
    # independent check: when signals() is False, target marginals computed by
    # direct evolution of product states cannot depend on the from-side state
    rng = np.random.default_rng(8)
    probes = [pure([1, 0]), pure([0, 1]), pure([1, 1]), pure([1, 1j])]
    contexts = probes + [np.eye(2) / 2]
    for u in [swap_gate(), cnot(), random_unitary(QUBITS, rng), hadamard().tensor(random_unitary(composite(("B", 2)), rng))]:
        for to in ("A", "B"):
            claims_silent = not u.signals(["A"], [to])
            gone = 1 if to == "A" else 0
            spread = 0.0
            for sigma_b in contexts:
                # evolve, then trace out the other qubit of the (A, B) output
                evolved = [u.matrix @ np.kron(rho_a, sigma_b) @ u.matrix.conj().T for rho_a in probes]
                marginals = [
                    np.trace(rho.reshape(2, 2, 2, 2), axis1=gone, axis2=gone + 2) for rho in evolved
                ]
                spread = max(
                    spread, max(np.max(np.abs(m - marginals[0])) for m in marginals)
                )
            if claims_silent:
                assert spread <= 1e-9
            else:
                assert spread > 1e-6  # these fixtures signal loudly when they signal


def test_memory_route_through_swap():
    # swap does not signal A to the A output, and its decomposition genuinely
    # routes B through the memory wire
    from causal_lens.causal import memory_decomposition

    u = swap_gate()
    dec = memory_decomposition(u, ["A"], ["A"])
    assert dec is not None
    rho = pure([1, -1])
    out = dec.v @ rho @ dec.v.conj().T  # on (env, idle output block)
    idle_marginal = np.trace(out.reshape(2, 2, 2, 2), axis1=0, axis2=2)
    assert np.max(np.abs(idle_marginal - rho)) <= 1e-9


def test_factors_hadamard_tensor_identity():
    u = hadamard().tensor(UnitaryChannel.identity(composite(("B", 2))))
    w = u.factors_as_identity(["B"])
    assert w is not None
    assert np.allclose(w.matrix, hadamard().matrix, atol=1e-12)


def test_with_names_keeps_a_factor_s_certificate():
    # a near-identity factor is certified at its derived bound; renaming its
    # wires changes no entry, so the same bound must still hold
    rng = np.random.default_rng(5)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    w, v = np.linalg.eigh((z + z.conj().T) / 2)
    u = UnitaryChannel(QUBITS, QUBITS, (v * np.exp(1e-4j * w)) @ v.conj().T)
    factor = u.factors_as_identity(["B"], tol=1e-3)
    # the factor's defect is above DEFAULT_TOL, inside its own bound
    assert quantum.DEFAULT_TOL < np.max(np.abs(factor.matrix.conj().T @ factor.matrix - np.eye(2)))
    assert factor.atol > 1e-4
    renamed = factor.with_names(["X"], ["X"])
    assert renamed.atol == factor.atol
    assert renamed.input.names == renamed.output.names == ("X",)
    assert np.array_equal(renamed.matrix, factor.matrix)


def test_factors_cnot_idle_b_fails():
    # the (1,1)->(1,0) transition breaks the delta pattern on the idle wire
    u = cnot()
    assert u.matrix[u.output.flatten((1, 0)), u.input.flatten((1, 1))] == 1.0
    assert u.factors_as_identity(["B"]) is None


def test_factors_full_idle_returns_scalar():
    ident = UnitaryChannel.identity(QUBITS)
    w = ident.factors_as_identity(["A", "B"])
    assert w is not None
    assert w.matrix.shape == (1, 1) and np.allclose(w.matrix, [[1.0]])


def test_factors_recovers_exact_factor():
    rng = np.random.default_rng(3)
    v = random_unitary(composite(("A", 2)), rng)
    u = v.tensor(UnitaryChannel.identity(composite(("B", 3))))
    w = u.factors_as_identity(["B"])
    assert w is not None
    assert np.max(np.abs(w.matrix - v.matrix)) <= 1e-12


def test_factors_respects_tolerance_bound():
    rng = np.random.default_rng(4)
    for _ in range(5):
        v = random_unitary(composite(("X", 3)), rng)
        u = v.tensor(UnitaryChannel.identity(composite(("Y", 2))))
        w = u.factors_as_identity(["Y"])
        rebuilt = w.tensor(UnitaryChannel.identity(composite(("Y", 2))))
        assert np.max(np.abs(rebuilt.matrix - u.matrix)) <= 1e-9


def test_compose_mismatch():
    with pytest.raises(SpecError):
        cnot().compose(hadamard())


def test_lifting_a_classical_gate_reads_its_array_not_its_table_tuple():
    gate = classical.cnot(dim=3)
    u = from_classical(gate)
    assert "table" not in vars(gate)  # the lazy tuple was never built
    assert np.array_equal(u.matrix[gate.table, np.arange(9)], np.ones(9))
    assert u.matrix.dtype == np.float64 and np.count_nonzero(u.matrix) == 9
