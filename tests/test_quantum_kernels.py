"""The quantum signalling kernel against its einsum form, and the witnesses it feeds.

``reference_terms`` is the signalling kernel as a plain ``einsum``, kept as the
reference for the matrix-product form in ``quantum._signalling_terms`` and for
the witness entry ``UnitaryChannel._witness`` reads off it. The residual kernel
(``quantum._residual`` through ``_pair_deltas``) and the factor kernel
(``quantum._identity_factor``) are checked against the pattern ``1 ⊗ M``
formed in full, and the two readings of one pair (probe process and
signalling terms) against each other.
"""

import numpy as np
import pytest

from causal_lens import causal, quantum
from causal_lens.classical import ClassicalChannel
from causal_lens.causal import find_witness, has_causal_influence, hierarchy_report, replay_witness
from causal_lens.quantum import UnitaryChannel, _signalling_delta, _signalling_terms
from causal_lens.systems import CompositeSystem, composite


def reference_terms(u, frm, to):
    """``m[t,u,a,k,b,l] = sum_s U[(t,s),(a,k)] conj(U[(u,s),(b,l)])`` and its expected form."""
    out_axes = [u.output.position(n) for n in to]
    out_axes += [k for k in range(len(u.output)) if k not in out_axes]
    in_axes = [u.input.position(n) for n in frm]
    in_axes += [k for k in range(len(u.input)) if k not in in_axes]
    d_to = u.output.select(to).total_dim
    d_from = u.input.select(frm).total_dim
    t = u.matrix.reshape(u.output.dims + u.input.dims)
    t = t.transpose(out_axes + [len(u.output) + k for k in in_axes])
    g = t.reshape(d_to, -1, d_from, u.input.total_dim // d_from)
    m = np.einsum("tsak,usbl->tuakbl", g, g.conj())
    delta = np.eye(d_from).reshape(1, 1, d_from, 1, d_from, 1)
    return m, delta * m[:, :, 0:1, :, 0:1, :]


def random_subset(names, rng):
    """A random subset of ``names`` in random order, possibly empty."""
    picked = [n for n in names if rng.random() < 0.5]
    rng.shuffle(picked)
    return tuple(picked)


def kernel_cases():
    """Seeded unitaries on 1-4 wires of dims 1-4, total dim <= 16, with subset pairs."""
    rng = np.random.default_rng(2014)
    out = []
    for k in range(60):
        n = int(rng.integers(1, 5))
        dims = [int(d) for d in rng.integers(1, 5, size=n)]
        while np.prod(dims) > 16:
            dims = [int(d) for d in rng.integers(1, 5, size=n)]
        system = composite(*zip("ABCD", dims))
        if rng.random() < 0.3:
            perm = rng.permutation(system.total_dim)
            u = quantum.from_classical(ClassicalChannel(system, system, perm))
        else:
            u = quantum.random_unitary(system, rng)
        if k % 2:
            u = u.with_names(output_names=[f"{w}'" for w in u.output.names])
        for _ in range(4):
            out.append((u, random_subset(u.input.names, rng), random_subset(u.output.names, rng)))
    return out


def test_kernel_cases_cover_the_required_shapes():
    cases = kernel_cases()
    assert {d for u, _, _ in cases for d in u.input.dims} == {1, 2, 3, 4}
    assert any(len(frm) == 0 for _, frm, _ in cases)
    assert any(len(to) == 0 for _, _, to in cases)
    # subsets listed against the system order on both sides
    assert any(list(frm) != sorted(frm) for _, frm, _ in cases)
    assert any(list(to) != sorted(to) for _, _, to in cases)


@pytest.mark.parametrize("u,frm,to", kernel_cases())
def test_signalling_terms_match_the_einsum_reference(u, frm, to):
    m = _signalling_terms(u, frm, to)
    m_ref, expected_ref = reference_terms(u, frm, to)
    assert m.shape == m_ref.shape
    assert np.max(np.abs(m - m_ref), initial=0.0) <= 1e-12
    # the witness is the worst entry of the gap, read with its expected value
    _, detail = u._witness(frm, to, m)
    (t, s), (a, b), (k, l) = detail["marginal_entry"], detail["from_unit"], detail["complement_unit"]
    actual, wanted = complex(*detail["actual"]), complex(*detail["expected"])
    assert abs(actual - m_ref[t, s, a, k, b, l]) <= 1e-12
    assert abs(wanted - expected_ref[t, s, a, k, b, l]) <= 1e-12
    assert abs(abs(actual - wanted) - np.max(np.abs(m_ref - expected_ref))) <= 1e-12


def pair_stacks():
    """Seeded stacks of 1-3 rows on 1-3 wires of dims 1-3, as (stack, wire axis pairs).

    A row is ``(lead axes, wire dims, wire dims)``, with 0-2 lead axes of dims
    1-3 (the probe copy; the ``t, u`` of the signalling pass). Some entries
    are set to their digit-0 reference, so that zero residuals occur.
    """
    rng = np.random.default_rng(1515)
    out = []
    for _ in range(80):
        rows = int(rng.integers(1, 4))
        lead = [int(d) for d in rng.integers(1, 4, size=int(rng.integers(0, 3)))]
        dims = [int(d) for d in rng.integers(1, 4, size=int(rng.integers(1, 4)))]
        shape = [rows] + lead + dims + dims
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        first = 1 + len(lead)
        pairs = [(first + k, first + len(dims) + k) for k in range(len(dims))]
        for a, b in pairs:
            x0 = np.take(np.take(x, [0], axis=a), [0], axis=b)
            x = np.where(rng.random(shape) < 0.2, x0, x)
        out.append((np.ascontiguousarray(x), pairs))
    return out


def test_pair_stacks_cover_the_required_shapes():
    stacks = pair_stacks()
    assert {len(x) for x, _ in stacks} == {1, 2, 3}
    assert {x.shape[a] for x, pairs in stacks for a, _ in pairs} == {1, 2, 3}
    assert {len(pairs) for _, pairs in stacks} == {1, 2, 3}


def reference_residual(x, pairs):
    """Per row, ``‖x − 1 ⊗ M‖²_F`` with the pattern formed in full, and ``M``.

    ``M`` is the mean of the diagonal blocks, every pair at digit ``j`` in turn.
    """
    paired = [a for pair in pairs for a in pair]
    d = int(np.prod([x.shape[a] for a, _ in pairs]))
    mean = 0
    for digits in np.ndindex(*[x.shape[a] for a, _ in pairs]):
        block = x
        for (a, b), j in zip(pairs, digits):
            index = [slice(None)] * x.ndim
            index[a] = index[b] = slice(j, j + 1)
            block = block[tuple(index)]
        mean = mean + block / d
    pattern = mean
    for a, b in pairs:
        dim = x.shape[a]
        pattern = pattern * np.eye(dim).reshape([dim if c in (a, b) else 1 for c in range(x.ndim)])
    r = x - pattern
    return (np.abs(r) ** 2).reshape(len(x), -1).sum(axis=1), np.squeeze(mean, axis=tuple(paired))


@pytest.mark.parametrize("x,pairs", pair_stacks())
def test_the_residual_kernel_matches_the_formed_pattern(x, pairs):
    entries = x[0].size
    deltas = quantum._pair_deltas(x, pairs)
    for j, pair in enumerate(pairs):
        want = np.sqrt(reference_residual(x, [pair])[0] / np.sqrt(entries))
        assert np.allclose(deltas[:, j], want, rtol=1e-12, atol=1e-15)
    # several pairs at once, row by row, in any order, none and all: the factor
    # comes out as a matrix on the unpaired axes (uncertified: x is no unitary)
    for idle in (pairs, pairs[::-1], pairs[1:][::-1], []):
        unstacked = [(a - 1, b - 1) for a, b in idle]
        rows = [quantum._identity_factor(row, unstacked, np.inf) for row in x]
        delta, eps, mean = (np.array(v) for v in zip(*rows))
        r2 = eps * eps
        want_r2, want_mean = reference_residual(x, idle)
        assert np.allclose(r2, want_r2, rtol=1e-12, atol=1e-15)
        assert np.allclose(mean.reshape(want_mean.shape), want_mean, rtol=1e-12, atol=1e-15)
        assert np.allclose(delta, np.sqrt(want_r2 / np.sqrt(entries)), rtol=1e-12, atol=1e-15)


def test_the_residual_is_formed_explicitly_at_the_tolerance():
    # W x 1 plus a 1e-11 part: ‖x‖² − ‖Tr x‖²/d would lose it to cancellation
    rng = np.random.default_rng(6)
    w = quantum.random_unitary(composite(("A", 4), ("B", 4)), rng).matrix
    tail = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    x = (np.kron(w, np.eye(4)) + 1e-11 * tail).reshape(1, 4, 4, 4, 4, 4, 4)
    pairs = [(3, 6)]
    want = np.sqrt(reference_residual(x, pairs)[0] / 64)
    assert 1e-11 < want[0] < 1e-9
    assert np.allclose(quantum._pair_deltas(x, pairs)[:, 0], want, rtol=1e-9)


@pytest.mark.parametrize("u,frm,to", kernel_cases())
def test_the_probe_and_the_signalling_terms_read_one_delta(u, frm, to):
    tilde = causal.t_process(u, frm).channel
    probe_delta = quantum._identity_factor(*quantum._paired_grid(tilde, to), tilde.atol)[0]
    sig_delta = _signalling_delta(_signalling_terms(u, frm, to))
    assert quantum._same_reading(probe_delta, sig_delta)
    assert 0 <= sig_delta < 1


def test_the_quantum_probe_stack_is_c_contiguous():
    u = quantum.random_unitary(composite(("A", 2), ("B", 3), ("C", 2)), np.random.default_rng(5))
    for blocks in ([(0,), (2,)], [(1,)], [(0, 2)]):
        assert u._probes(blocks).flags.c_contiguous


# -- canonical witness entries ----------------------------------------------------------


def seed_11_channels():
    """The 3x2 ``exp(0.03i H)`` channels of numpy seed 11."""
    rng = np.random.default_rng(11)
    system = composite(("A", 3), ("B", 2))
    for _ in range(10):
        h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        w, v = np.linalg.eigh(h + h.conj().T)
        yield UnitaryChannel(system, system, (v * np.exp(0.03j * w)) @ v.conj().T)


def test_witness_names_the_smaller_entry_of_its_hermitian_mirror_pair():
    variants = set()
    for u in seed_11_channels():
        for tol in np.geomspace(1e-2, 0.5, 30):
            if not has_causal_influence(u, ["A"], ["B"], tol):
                continue
            wit = find_witness(u, ["A"], ["B"], tol)
            d = wit.detail
            (t, s), (a, b), (k, l) = d["marginal_entry"], d["from_unit"], d["complement_unit"]
            assert (t, s, a, k, b, l) <= (s, t, b, l, a, k)
            assert replay_witness(u, wit, tol)
            variants.add(d["variant"])
    assert variants == {"signalling-identity"}


def test_the_band_channel_witness_is_its_worst_signalling_entry():
    # inside the band where the entrywise readings used to disagree, the one
    # delta (0.1367 from both sides) decides, and the witness stays canonical
    u = next(seed_11_channels())
    assert abs(_signalling_delta(_signalling_terms(u, ["A"], ["B"])) - 0.1367) < 1e-4
    d = find_witness(u, ["A"], ["B"], 0.1).detail
    assert d["variant"] == "signalling-identity"
    assert (d["marginal_entry"], d["from_unit"], d["complement_unit"]) == ([0, 1], [0, 1], [0, 1])
    assert not has_causal_influence(u, ["A"], ["B"], 0.14)


@pytest.mark.parametrize(
    "u,signals",
    [(quantum.cnot(), True), (UnitaryChannel.identity(composite(("A", 2), ("B", 3))), False)],
)
def test_hierarchy_report_computes_the_signalling_terms_once(monkeypatch, u, signals):
    # one computation serves the signalling verdict, the memory path and the witness
    calls = []
    real = quantum._signalling_terms

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(quantum, "_signalling_terms", counted)
    report = hierarchy_report(u, ["A"], ["B"])
    assert report.signalling == report.causal_influence == signals
    assert report.memory_decomposable != signals
    assert len(calls) == 1


def test_signalling_kernels_build_no_composite_system(monkeypatch):
    u = quantum.random_unitary(composite(("A", 2), ("B", 3), ("C", 2)), np.random.default_rng(3))
    built = []
    real = CompositeSystem.__post_init__
    monkeypatch.setattr(
        CompositeSystem, "__post_init__", lambda self: built.append(self) or real(self)
    )
    m = quantum._signalling_terms(u, ("C", "A"), ("B",))
    assert u.signals(["C", "A"], ["B"]) == (_signalling_delta(m) > 1e-9)
    u.wire_signalling()
    quantum._grouped(u.matrix, u.output, u.input, ("B",), ("C", "A"))
    assert built == []
