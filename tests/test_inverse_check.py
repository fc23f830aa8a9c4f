"""The quantum ``inverse_nosignalling_check`` by contraction, against the per-unit loop.

``loop_deviation`` is the reference: the two CP maps applied to each matrix
unit of the output space in turn, with dense products, as the check was
first written. The library contracts all ``d**2`` units at once and must
reach the same verdict for every ``tol`` not within rounding of the largest
deviation.
"""

import numpy as np
import pytest

from causal_lens import classical, quantum
from causal_lens.causal import _grounded, inverse_nosignalling_check
from causal_lens.errors import SpecError
from causal_lens.quantum import UnitaryChannel, _delta_gap, _partial_trace, _signalling_terms
from causal_lens.systems import composite

BITS = composite(("A", 2), ("B", 2))


def loop_deviation(u, frm, to):
    """Largest entrywise gap between both sides, one matrix unit at a time."""
    frm = [n for n in u.input.names if n in set(frm)]
    to = [n for n in u.output.names if n in set(to)]
    b_names = u.input.complement(frm)
    c_iso = u.matrix[:, _grounded(u.input, b_names)]
    d = u.output.total_dim
    udag = u.matrix.conj().T
    worst = 0.0
    for z1 in range(d):
        for z2 in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[z1, z2] = 1.0
            sigma = _partial_trace(udag @ e @ u.matrix, u.input, b_names)
            lhs = _partial_trace(c_iso @ sigma @ c_iso.conj().T, u.output, to)
            rhs = _partial_trace(e, u.output, to)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def signalling_defect(u, frm, to):
    return float(np.max(_delta_gap(_signalling_terms(u, frm, to), [(2, 4)])))


def assert_agrees(u, frm, to, tol, dev=None):
    """The library's verdict (None: refused) equals the loop's at ``tol``."""
    dev = loop_deviation(u, frm, to) if dev is None else dev
    assert abs(dev - tol) > 1e-12, "tol within rounding of the deviation"
    if u.signals(frm, to, tol):
        with pytest.raises(SpecError, match="precondition"):
            inverse_nosignalling_check(u, frm, to, tol)
        return None
    got = inverse_nosignalling_check(u, frm, to, tol)
    assert got == (dev <= tol)
    return got


def test_existing_quantum_cases_agree_with_the_loop():
    rng = np.random.default_rng(47)
    va = quantum.random_unitary(composite(("A", 2)), rng)
    vb = quantum.random_unitary(composite(("B", 2)), rng)
    k = quantum.from_classical(classical.cnot())
    cases = [
        (va.tensor(vb), ["A"], ["B"]),
        (UnitaryChannel.identity(BITS), ["A"], ["B"]),
        (k, ["B"], ["A"]),
        (k, ["A"], ["B"]),  # signals: both refuse
    ]
    for u, frm, to in cases:
        assert assert_agrees(u, frm, to, quantum.DEFAULT_TOL) in (True, None)


DIMS = [(2, 2), (3, 2), (2, 3), (2, 2, 2), (2, 3, 2), (3, 2, 2)]


def near_product(seed):
    """Local unitaries on each wire times exp(i eps H), on 2-3 wires."""
    rng = np.random.default_rng(seed)
    dims = DIMS[seed % len(DIMS)]
    system = composite(*zip("ABC", dims))
    local = quantum.random_unitary(composite(("A", dims[0])), rng)
    for name, d in zip("BC", dims[1:]):
        local = local.tensor(quantum.random_unitary(composite((name, d)), rng))
    n = system.total_dim
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    eps = (0.0, 0.003, 0.03)[seed % 3]
    return UnitaryChannel(system, system, local.matrix @ (v * np.exp(1j * eps * w)) @ v.conj().T)


def blocks(system):
    names = list(system.names)
    return [(["A"], ["B"]), (["A"], names[1:]), (names[:-1], names[-1:]), (["B"], ["A"])]


def tolerances(sig, dev):
    """Tols on each side: past both defects, below the signalling defect, between them."""
    out = [max(sig, dev, 1e-9) * 1.5]  # the check runs and passes
    if sig > 1e-9:
        out.append(sig / 2)  # refused: the channel signals
    if dev > max(sig * 1.001, 1e-9):
        out.append((sig + dev) / 2)  # no signalling, but the check fails
    return out


def outcomes(seed):
    u = near_product(seed)
    out = set()
    for frm, to in blocks(u.input):
        dev = loop_deviation(u, frm, to)
        for tol in tolerances(signalling_defect(u, frm, to), dev):
            out.add(assert_agrees(u, frm, to, tol, dev))
    return out


@pytest.mark.parametrize("seed", range(36))
def test_seeded_unitaries_agree_with_the_loop_around_tol(seed):
    assert True in outcomes(seed)


def test_seeded_sample_reaches_every_outcome():
    assert set().union(*(outcomes(seed) for seed in range(0, 36, 2))) == {True, False, None}
