"""A real unitary is computed in float64, and reads the same ``δ`` as its complex form.

``UnitaryChannel`` stores a matrix with no nonzero imaginary part as float64.
A global phase ``e^{iθ}`` leaves every ``δ`` unchanged and makes the matrix
complex, so ``U`` and ``e^{iθ}U`` run the same verdicts down the real and the
complex path.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_lens import causal, classical, quantum
from causal_lens.causal import (
    check_interaction_without_disturbance,
    hierarchy_report,
    wire_relations,
)
from causal_lens.quantum import UnitaryChannel, _same_reading
from causal_lens.systems import composite

DIMS = [(2, 2), (3, 2), (2, 2, 2)]
H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def permutation(perm) -> np.ndarray:
    m = np.zeros((len(perm), len(perm)))
    m[list(perm), range(len(perm))] = 1.0
    return m


def hadamard_on(dims, k) -> np.ndarray:
    """A Hadamard on the dim-2 wire ``k`` of ``dims``, identity elsewhere."""
    out = np.ones((1, 1))
    for j, d in enumerate(dims):
        out = np.kron(out, H if j == k else np.eye(d))
    return out


@st.composite
def real_orthogonal(draw):
    """``(system, U)``: a permutation, a Hadamard-and-permutation circuit, or a real QR."""
    dims = draw(st.sampled_from(DIMS))
    n = math.prod(dims)
    kind = draw(st.sampled_from(["permutation", "circuit", "qr"]))
    if kind == "permutation":
        u = permutation(draw(st.permutations(range(n))))
    elif kind == "circuit":
        qubits = [k for k, d in enumerate(dims) if d == 2]
        u = np.eye(n)
        gates = st.one_of(st.sampled_from(qubits), st.permutations(range(n)))
        for gate in draw(st.lists(gates, min_size=1, max_size=4)):
            u = (hadamard_on(dims, gate) if isinstance(gate, int) else permutation(gate)) @ u
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return composite(*zip("ABC", dims)), u


@settings(max_examples=60, deadline=None)
@given(real_orthogonal(), st.floats(0.1, math.pi - 0.1), st.data())
def test_the_real_and_the_complex_path_read_the_same_delta(case, theta, data):
    system, m = case
    real = UnitaryChannel(system, system, m)
    phased = UnitaryChannel(system, system, np.exp(1j * theta) * m)
    assert real.matrix.dtype == np.float64 and phased.matrix.dtype == np.complex128

    delta_r = quantum._gram_deltas(real, (0,), quantum.DEFAULT_TOL)[0]
    delta_c = quantum._gram_deltas(phased, (0,), quantum.DEFAULT_TOL)[0]
    assert _same_reading(delta_r, delta_c)
    assert np.array_equal(causal.influence_relation(real), causal.influence_relation(phased))
    for a, b in zip(wire_relations(real), wire_relations(phased)):
        assert np.array_equal(a, b)

    frm = data.draw(st.sampled_from(system.names))
    to = data.draw(st.sampled_from(system.names))
    rep_r, rep_c = hierarchy_report(real, [frm], [to]), hierarchy_report(phased, [frm], [to])
    for name in ("causal_influence", "memory_decomposable", "signalling", "consistent"):
        assert getattr(rep_r, name) == getattr(rep_c, name)
    assert (rep_r.witness is None) == (rep_c.witness is None)
    niwd_r = check_interaction_without_disturbance(real, [frm]).to_dict()
    assert niwd_r == check_interaction_without_disturbance(phased, [frm]).to_dict()


@pytest.mark.parametrize("phase,calls", [(1.0, 3), (1j, 6)], ids=["real", "complex"])
def test_a_real_six_qubit_probe_pass_packs_twice_the_probes_per_chunk(monkeypatch, phase, calls):
    system = composite(*((f"c{k}", 2) for k in range(6)))
    perm = np.random.default_rng(6).permutation(system.total_dim)
    u = UnitaryChannel(system, system, phase * permutation(perm))
    stacks = []
    heisenberg = quantum._heisenberg

    def spy(u, blocks):
        stack = heisenberg(u, blocks)
        stacks.append(stack)
        return stack

    # the probe side of the Gram loop
    monkeypatch.setattr(quantum, "_heisenberg", spy)
    causal.influence_relation(u)
    assert len(stacks) == calls
    assert all(s.dtype == u.matrix.dtype for s in stacks)
    # the working-set estimate, four arrays the size of the stack, fits a chunk
    assert all(4 * s.nbytes <= classical._CHECK_CHUNK_BYTES for s in stacks)


def test_a_real_unitary_keeps_its_probe_and_heisenberg_stacks_in_float64(monkeypatch):
    system = composite(*zip("ABC", (2, 2, 2)))
    m = hadamard_on(system.dims, 1) @ permutation(np.random.default_rng(3).permutation(8))
    u = UnitaryChannel(system, system, m)
    assert u.matrix.dtype == np.float64
    stacks = []
    heisenberg = quantum._heisenberg

    def spy(v, blocks):
        stack = heisenberg(v, blocks)
        assert v is u
        stacks.extend((("probe", "heisenberg")[side], stack.dtype) for side, _ in blocks)
        return stack

    monkeypatch.setattr(quantum, "_heisenberg", spy)
    for run, sides in (
        (lambda: wire_relations(u), {"probe", "heisenberg"}),
        (lambda: hierarchy_report(u, ["A"], ["B", "C"]), {"probe", "heisenberg"}),
        (lambda: u.signals(["A", "B"], ["C"]), {"heisenberg"}),
    ):
        stacks.clear()
        run()
        assert {side for side, _ in stacks} == sides
        assert {dtype for _, dtype in stacks} == {np.dtype(np.float64)}
