import numpy as np
import pytest

from causal_lens.errors import SpecError
from causal_lens.quantum import (
    DensityOperator,
    UnitaryChannel,
    cnot,
    from_classical,
    hadamard,
    random_unitary,
    swap_gate,
)
from causal_lens import classical
from causal_lens.systems import composite

QUBITS = composite(("A", 2), ("B", 2))


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
def test_a_non_finite_entry_fails_both_certificates(value, entry):
    bit = composite(("A", 2))
    u, rho = np.eye(2, dtype=complex), np.diag([0.5, 0.5]).astype(complex)
    for m in (u, rho):
        m[entry] = m[entry[::-1]] = value  # Hermitian but for the non-finite value
    with pytest.raises(SpecError, match="unitarity certificate failed"):
        UnitaryChannel(bit, bit, u)
    with pytest.raises(SpecError, match="not Hermitian"):
        DensityOperator(bit, rho)


def test_density_operator_certificates_reject():
    bit = composite(("A", 2))
    with pytest.raises(SpecError):
        DensityOperator(bit, np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian
    with pytest.raises(SpecError):
        DensityOperator(bit, np.array([[0.9, 0.0], [0.0, 0.5]]))  # trace != 1
    with pytest.raises(SpecError):
        DensityOperator(bit, np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue


def test_from_classical_matches_table():
    k = classical.cnot()
    u = from_classical(k)
    for x in range(4):
        col = u.matrix[:, x]
        assert col[k.table[x]] == 1.0 and np.sum(np.abs(col)) == 1.0


def test_partial_trace_product_state():
    rho_a = DensityOperator.from_vector(composite(("A", 2)), [1, 1])
    rho_b = DensityOperator.from_vector(composite(("B", 2)), [1, 1j])
    joint = DensityOperator(QUBITS, np.kron(rho_a.matrix, rho_b.matrix))
    assert np.allclose(joint.partial_trace(["B"]).matrix, rho_b.matrix, atol=1e-12)
    assert np.allclose(joint.partial_trace(["A"]).matrix, rho_a.matrix, atol=1e-12)


def test_partial_trace_bell_state():
    bell = DensityOperator.from_vector(QUBITS, [1, 0, 0, 1])
    reduced = bell.partial_trace(["A"])
    assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_keep_all_is_identity_operation():
    rho = DensityOperator.from_vector(QUBITS, [1, 2, 3, 4])
    assert np.allclose(rho.partial_trace(["A", "B"]).matrix, rho.matrix)
    with pytest.raises(SpecError):
        rho.partial_trace(["Z"])


def test_partial_trace_preserves_trace_and_positivity():
    rng = np.random.default_rng(1)
    sys3 = composite(("A", 2), ("B", 3), ("C", 2))
    for _ in range(10):
        z = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        m = z @ z.conj().T
        rho = DensityOperator(sys3, m / np.trace(m))
        red = rho.partial_trace(["B"])
        assert abs(np.trace(red.matrix) - 1) <= 1e-9
        assert np.min(np.linalg.eigvalsh(red.matrix)) >= -1e-8


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
    probes = [
        DensityOperator.computational(composite(("A", 2)), (0,)).matrix,
        DensityOperator.computational(composite(("A", 2)), (1,)).matrix,
        DensityOperator.from_vector(composite(("A", 2)), [1, 1]).matrix,
        DensityOperator.from_vector(composite(("A", 2)), [1, 1j]).matrix,
    ]
    contexts = probes + [np.eye(2) / 2]
    for u in [swap_gate(), cnot(), random_unitary(QUBITS, rng), hadamard().tensor(random_unitary(composite(("B", 2)), rng))]:
        for to in ("A", "B"):
            claims_silent = not u.signals(["A"], [to])
            spread = 0.0
            for sigma_b in contexts:
                marginals = [
                    u.apply(DensityOperator(QUBITS, np.kron(rho_a, sigma_b)))
                    .partial_trace([to])
                    .matrix
                    for rho_a in probes
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
    rho = DensityOperator.from_vector(composite(("B", 2)), [1, -1]).matrix
    out = dec.v.apply(rho)  # on (env, idle output block)
    idle_marginal = np.trace(out.reshape(2, 2, 2, 2), axis1=0, axis2=2)
    assert np.max(np.abs(idle_marginal - rho)) <= 1e-9


def test_factors_hadamard_tensor_identity():
    u = hadamard().tensor(UnitaryChannel.identity(composite(("B", 2))))
    w = u.factors_as_identity(["B"])
    assert w is not None
    assert np.allclose(w.matrix, hadamard().matrix, atol=1e-12)


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
