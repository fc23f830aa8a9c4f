"""``influence_relation`` decides every single-wire neighbourhood in one pass.

The reference is ``neighbourhood(u, [i], tol)``, one probe process per input
wire; ``ca`` and ``analyze`` call the relation and build no probe channel.
"""

from pathlib import Path

import numpy as np
import pytest

from causal_lens import causal, classical, quantum
from causal_lens.automata import build_ring, neighbourhood_maps
from causal_lens.causal import embed_on, influence_relation, iterate, neighbourhood, t_process
from causal_lens.classical import ClassicalChannel, _at_zero, _bijective
from causal_lens.cli import load_rule_file, main
from causal_lens.errors import ConsistencyError, SpecError
from causal_lens.quantum import UnitaryChannel
from causal_lens.systems import _read_digits, composite

from test_identity_kernels import _passes_through
from test_signalling_pass import near_identity_ring

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
RULES = ("single_cnot_layer_ring.json", "staggered_cnot_ring.json", "swap_chain_ring.json")
MAX_CELLS = {"classical": 12, "quantum": 6}
MAX_STEPS = 3


def per_wire(u, tol=quantum.DEFAULT_TOL):
    """The relation built from one ``neighbourhood`` call per input wire."""
    rows = []
    for i in u.input.names:
        hood = neighbourhood(u, [i], tol)
        rows.append([t in hood for t in u.output.names])
    return np.array(rows, dtype=bool).reshape(len(u.input), len(u.output))


def assert_matches_per_wire(u, tol=quantum.DEFAULT_TOL):
    assert influence_relation(u, tol).tolist() == per_wire(u, tol).tolist()


# -- seeded channels ------------------------------------------------------------------


def random_channel(rng, model, inp, out):
    if model == "classical":
        return classical.random_reversible(inp, rng, out)
    if rng.random() < 0.4:
        return quantum.from_classical(classical.random_reversible(inp, rng, out))
    return quantum.random_unitary(inp, rng, out)


def near_product(rng, model, inp, out):
    """A channel that leaves some wires alone: a random gate on a prefix, identity on the rest."""
    k = int(rng.integers(1, len(inp) + 1))
    head, tail = inp.restrict(inp.names[:k]), inp.restrict(inp.names[k:])
    cls = ClassicalChannel if model == "classical" else UnitaryChannel
    u = random_channel(rng, model, head, head).tensor(cls.identity(tail))
    return u.with_names(output_names=out.names)


SYSTEMS = [
    ((1,), 1),
    ((2,), 1),
    ((4,), 1),
    ((2, 2), 2),
    ((3, 3), 2),
    ((4, 4), 2),
    ((1, 3), 2),
    ((2, 3, 2), 3),
    ((4, 1, 3), 3),
    ((3, 2, 2, 2), 4),
    ((2, 2, 2, 2, 2), 5),
]


@pytest.mark.parametrize("model", sorted(MAX_CELLS))
@pytest.mark.parametrize("dims,n", SYSTEMS)
@pytest.mark.parametrize("primed", [False, True])
def test_seeded_channels_match_per_wire_neighbourhoods(model, dims, n, primed):
    rng = np.random.default_rng([8, *dims, primed, model == "quantum"])
    inp = composite(*zip("ABCDE", dims))
    # primed outputs, listed in a shuffled order of the input dims
    order = rng.permutation(n) if primed else np.arange(n)
    out = composite(*((f"{'ABCDE'[k]}'", dims[k]) for k in order)) if primed else inp
    for _ in range(6):
        make = near_product if rng.random() < 0.5 else random_channel
        if primed and make is near_product:
            make = random_channel  # a near product pairs outputs with inputs in order
        assert_matches_per_wire(make(rng, model, inp, out))


def fixture_cases():
    for model in sorted(MAX_CELLS):
        for rule in RULES:
            for cells in range(2, MAX_CELLS[model] + 1):
                yield model, rule, cells


@pytest.mark.parametrize("model,rule,cells", list(fixture_cases()))
def test_fixture_rules_match_per_wire_neighbourhoods(model, rule, cells):
    cell_dim, layers = load_rule_file(str(FIXTURES / rule), model)
    try:
        a = build_ring(layers, cells, cell_dim, model=model)
    except SpecError:  # the rule's gates overlap on so few cells
        return
    for steps in range(1, MAX_STEPS + 1):
        assert_matches_per_wire(iterate(a.step, steps))


@pytest.mark.parametrize("model,cells", [("classical", 12), ("quantum", 6)])
def test_a_stack_spanning_several_chunks_matches(monkeypatch, model, cells):
    stacks = []
    real = causal._probes
    monkeypatch.setattr(
        causal, "_probes", lambda u, blocks: stacks.append(len(blocks)) or real(u, blocks)
    )
    cell_dim, layers = load_rule_file(str(FIXTURES / "staggered_cnot_ring.json"), model)
    u = iterate(build_ring(layers, cells, cell_dim, model=model).step, 2)
    rel = influence_relation(u)
    assert len(stacks) > 1 and sum(stacks) == cells
    monkeypatch.setattr(causal, "_probes", real)
    assert rel.tolist() == per_wire(u).tolist()


# -- what the relation replaces -----------------------------------------------------


def test_ca_and_analyze_build_no_probe_process(monkeypatch):
    monkeypatch.setattr(causal, "t_process", lambda *a, **k: pytest.fail("t_process called"))
    built = []
    for cls in (ClassicalChannel, UnitaryChannel):
        real = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__", lambda self, real=real: built.append(self) or real(self)
        )
        monkeypatch.setattr(
            cls, "factors_as_identity", lambda *a, **k: pytest.fail("factor channel built")
        )
    ring = FIXTURES / "staggered_cnot_ring.json"
    for model in sorted(MAX_CELLS):
        argv = ["ca", str(ring), "--cells", "6", "--steps", "2", "--model", model]
        assert main(argv + ["--format", "json"]) == 0
    for name in ("cnot.json", "cnot_quantum.json", "swap.json"):
        assert main(["analyze", str(FIXTURES / name), "--format", "json"]) == 0
    # every channel built lives on the ring or on a file's own wires: no probe copies
    names = {f"c{i}" for i in range(6)} | {"A", "B", "A'", "B'"}
    assert built and all(set(ch.input.names) <= names for ch in built)


@pytest.mark.parametrize("model", sorted(MAX_CELLS))
def test_an_over_reported_idle_wire_fails_the_joint_test(monkeypatch, model):
    # the per-wire sweep reports every output idle: classically every wire
    # passes through, quantumly every wire's delta is 0
    u = classical.cnot()
    if model == "quantum":
        u = quantum.from_classical(u)
        monkeypatch.setattr(
            causal, "_wire_deltas", lambda u, grid: np.zeros((len(grid), len(u.output)))
        )
    else:
        monkeypatch.setattr(
            causal, "_idle_outputs", lambda u, grid: np.ones((len(grid), len(u.output)), bool)
        )
    match = "did not combine into a joint factorization"
    with pytest.raises(ConsistencyError, match=match):
        influence_relation(u)
    with pytest.raises(ConsistencyError, match=match):
        t_process(u, ["A"])


def test_the_classical_factor_certificate_backs_the_joint_test(monkeypatch):
    # with the per-wire sweep and the stack's pass-through comparison both
    # over-reporting, only the factor's bijection certificate is left to
    # catch the false idle wires
    monkeypatch.setattr(causal, "_steps_by", lambda grid, axes, steps: np.ones(len(grid), bool))
    monkeypatch.setattr(causal, "_passes_idle_digits", lambda flat, off2: np.ones(len(flat), bool))
    with pytest.raises(ConsistencyError, match="did not combine"):
        influence_relation(classical.cnot())


def counting(calls, real):
    """``real``, recording the stack size (its second argument's length) of each call."""

    def spy(*args):
        calls.append(len(args[1]))
        return real(*args)

    return spy


def test_a_classical_relation_runs_one_joint_test_per_stack(monkeypatch):
    stacks, joint, per_probe = [], [], []
    monkeypatch.setattr(causal, "_probes", counting(stacks, causal._probes))
    monkeypatch.setattr(
        causal, "_classical_joint_test", counting(joint, causal._classical_joint_test)
    )
    monkeypatch.setattr(causal, "_identity_factor", counting(per_probe, causal._identity_factor))
    cell_dim, layers = load_rule_file(str(FIXTURES / "staggered_cnot_ring.json"), "classical")
    influence_relation(iterate(build_ring(layers, 8, cell_dim).step, 2))
    assert per_probe == [] and joint == stacks == [8]
    # the spy sees the per-probe calls of a quantum stack
    influence_relation(quantum.from_classical(classical.cnot()))
    assert len(per_probe) == 2


# -- the stack-wide classical joint test against the per-probe one it replaced -------


def reference_joint_factor(u, grid, idle):
    """The classical joint test and factor certificate of one probe, a stack of one."""
    wires = [int(k) for k in np.flatnonzero(idle)]
    n = len(u.output)
    ok = _passes_through(grid, [k + 1 for k in wires], [u.output.strides[k] for k in wires])[0]
    # the copy and remaining output digits of the table with the idle inputs at 0
    rest = [k for k in range(n) if k not in wires]
    w = _read_digits(
        _at_zero(grid, [k + 2 for k in wires]).reshape(-1),
        [u.output.total_dim] + [u.output.strides[k] for k in rest],
        [grid.shape[1]] + [u.output.dims[k] for k in rest],
    )
    ok = ok and _bijective(w)
    if not ok:
        raise ConsistencyError("per-wire idle factors did not combine into a joint factorization")
    return w


def raises(f, *args):
    try:
        f(*args)
    except ConsistencyError:
        return True
    return False


def local_gates(system, rng):
    """A product of one to three random gates, each on two random wires."""
    u = ClassicalChannel.identity(system)
    for _ in range(int(rng.integers(1, 4))):
        pair = sorted(rng.choice(len(system), 2, replace=False))
        gate = classical.random_reversible(system.restrict([system.names[k] for k in pair]), rng)
        u = embed_on(gate, system).compose(u)
    return u


JOINT_DIMS = [(2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 3, 2), (4, 2, 3), (2, 2, 2, 2), (2, 1, 2)]
JOINT_DIMS.append((2,) * 6)
JOINT_TEST = causal._classical_joint_test


def flip_outcomes(monkeypatch, u, probes_per_chunk):
    """Per single-entry flip of each stack's swept idle mask: (stack raises, reference raises).

    A chunk holds ``probes_per_chunk`` probes of dim-2 inputs.
    """
    monkeypatch.setattr(quantum, "_CHECK_CHUNK_BYTES", probes_per_chunk * 64 * u.output.total_dim)
    outcomes = []

    def spy(flat, idle, zd):
        grid = flat.reshape((len(flat), -1) + u.output.dims)
        for p in range(len(flat)):  # the swept mask itself passes
            reference_joint_factor(u, grid[p : p + 1], idle[p])
        for p, k in np.ndindex(idle.shape):
            flipped = idle.copy()
            flipped[p, k] = ~flipped[p, k]
            want = any(
                raises(reference_joint_factor, u, grid[q : q + 1], flipped[q])
                for q in range(len(flat))
            )
            outcomes.append((raises(JOINT_TEST, flat, flipped, zd), want))
        return JOINT_TEST(flat, idle, zd)

    monkeypatch.setattr(causal, "_classical_joint_test", spy)
    assert_matches_per_wire(u)
    return outcomes


@pytest.mark.parametrize("dims", JOINT_DIMS)
@pytest.mark.parametrize("probes_per_chunk", [1, 2, 1 << 20])
@pytest.mark.parametrize("certificate_only", [False, True])
def test_the_stack_joint_test_raises_where_the_per_probe_test_does(
    monkeypatch, dims, probes_per_chunk, certificate_only
):
    if certificate_only:  # both pass-through comparisons accept everything
        monkeypatch.setitem(globals(), "_passes_through", lambda g, a, s: np.ones(len(g), bool))
        monkeypatch.setattr(causal, "_passes_idle_digits", lambda f, o: np.ones(len(f), bool))
    rng = np.random.default_rng([16, *dims, probes_per_chunk])
    system = composite(*zip("ABCDEF", dims))
    # the identity's probes reach both outcomes: each passes all wires but its own
    outcomes = flip_outcomes(monkeypatch, ClassicalChannel.identity(system), probes_per_chunk)
    for make in (classical.random_reversible, local_gates) * 2:
        outcomes += flip_outcomes(monkeypatch, make(system, rng), probes_per_chunk)
    assert all(got == want for got, want in outcomes)
    assert {want for _, want in outcomes} == {False, True}


@pytest.mark.parametrize("pairs", [[(1, 3)], [(0, 2), (1, 3)], [(1, 3), (0, 2)], []])
def test_the_quantum_factor_certificate_rejects_a_non_unitary_block(pairs):
    # half of (identity x identity) is exactly its own identity pattern on any
    # wires, but its block is not unitary
    grid = 0.5 * np.eye(4).reshape(2, 2, 2, 2)
    with pytest.raises(ConsistencyError, match="did not combine"):
        quantum._identity_factor(grid, pairs, 1e-9)
    _, eps, w = quantum._identity_factor(grid, pairs, np.inf)  # no certificate
    assert [eps * eps] == [0.0]
    assert quantum._unitarity_defects(w) > quantum._factor_atol(0.0, 1e-9)


@pytest.mark.parametrize("model", sorted(MAX_CELLS))
def test_a_failed_probe_certificate_is_a_spec_error(monkeypatch, model):
    u = classical.cnot()
    u = quantum.from_classical(u) if model == "quantum" else u
    real = causal._probes
    monkeypatch.setattr(causal, "_probes", lambda u, blocks: 2 * real(u, blocks))
    match = "bijection" if model == "classical" else "unitarity certificate failed"
    with pytest.raises(SpecError, match=match):
        influence_relation(u)


# -- near the tolerance ---------------------------------------------------------------


NEAR = [(seed, cells) for seed in range(40) for cells in (2, 3, 4)]


def per_cell_outcomes(u, tol):
    """Each cell's neighbourhood, or None where its probe process raises."""
    out = []
    for i in u.input.names:
        try:
            out.append(neighbourhood(u, [i], tol))
        except ConsistencyError:
            out.append(None)
    return out


@pytest.mark.parametrize("seed,cells", NEAR)
def test_near_identity_rings_raise_exactly_where_a_probe_process_raises(seed, cells):
    # the step times exp(i eps H), with eps a fraction of tol: per-wire idle
    # tests pass where the joint factorization may not
    u = near_identity_ring(seed, cells, 3e-10).step
    want = per_cell_outcomes(u, 1e-9)
    if None in want:
        with pytest.raises(ConsistencyError, match="did not combine"):
            influence_relation(u, 1e-9)
    else:
        got = influence_relation(u, 1e-9)
        assert [frozenset(t for t, hit in zip(u.output.names, row) if hit) for row in got] == want


def test_near_identity_cases_never_raise():
    # the joint delta is bounded by the per-wire ones, so no probe raises
    rings = [near_identity_ring(seed, cells, 3e-10) for seed, cells in NEAR]
    assert not any(None in per_cell_outcomes(a.step, 1e-9) for a in rings)


def test_neighbourhood_maps_match_the_relation_near_the_tolerance():
    a = near_identity_ring(3, 4, 3e-10)
    (entries,) = neighbourhood_maps(a, 1, 1e-9)
    assert [e.causal for e in entries] == per_cell_outcomes(a.step, 1e-9)


def cnot_id_probes():
    """600 single-wire probes: ``expm(i 3e-10 H) (cnot x id)`` for 200 ``H``, each input wire.

    ``H = (Z + Z+)/2`` with ``Z`` complex Gaussian, numpy seed 0; ``eps`` is a
    third of the default tolerance.
    """
    base = quantum.cnot().tensor(UnitaryChannel.identity(composite(("C", 2))))
    rng = np.random.default_rng(0)
    for _ in range(200):
        z = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        w, v = np.linalg.eigh((z + z.conj().T) / 2)
        u = UnitaryChannel(base.input, base.output, (v * np.exp(3e-10j * w)) @ v.conj().T @ base.matrix)
        for wire in u.input.names:
            yield u, wire


def test_per_wire_idle_factors_always_combine_near_the_tolerance():
    # each wire within tol made the old digit-0 joint gap exceed it on 5 of these
    verdicts = set()
    for u, wire in cnot_id_probes():
        tp = t_process(u, [wire])
        verdicts.add(tp.idle_subset)
    assert frozenset({"C"}) in verdicts


# -- quantum signalling is the transposed influence relation of the inverse ------------


def assert_signalling_is_inverse_influence(u):
    """``wire_signalling`` equals ``influence_relation(u.invert()).T``, out of the tolerance band.

    The relations are the same at ``tol`` 1000 times below and above the
    default, so no deviation of either pass lies near it.
    """
    tol = quantum.DEFAULT_TOL
    sig, inf = u.wire_signalling(tol), influence_relation(u.invert(), tol).T
    for far in (tol / 1000, tol * 1000):
        assert np.array_equal(u.wire_signalling(far), sig)
        assert np.array_equal(influence_relation(u.invert(), far).T, inf)
    assert np.array_equal(sig, inf)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_lifted_signalling_is_inverse_influence_on_every_permutation(dims):
    system = composite(*zip("AB", dims))
    for u in classical.all_reversible_channels(system):
        assert_signalling_is_inverse_influence(quantum.from_classical(u))


HAAR_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2), (2, 3, 2)]


@pytest.mark.parametrize("seed", range(50))
def test_haar_signalling_is_inverse_influence(seed):
    dims = HAAR_DIMS[seed % len(HAAR_DIMS)]
    u = quantum.random_unitary(composite(*zip("ABC", dims)), np.random.default_rng([2020, seed]))
    assert_signalling_is_inverse_influence(u)


@pytest.mark.parametrize("rule", RULES)
def test_fixture_ring_signalling_is_inverse_influence(rule):
    cell_dim, layers = load_rule_file(str(FIXTURES / rule), "quantum")
    for cells in range(2, MAX_CELLS["quantum"] + 1):
        try:
            a = build_ring(layers, cells, cell_dim, model="quantum")
        except SpecError:  # the rule's gates overlap on so few cells
            continue
        for steps in range(1, MAX_STEPS + 1):
            assert_signalling_is_inverse_influence(iterate(a.step, steps))


# -- the lift identity: classical influence is quantum influence is quantum signalling -


def assert_lift_identity(u):
    """``influence_relation(u)`` equals both single-wire relations of the lift of ``u``.

    The lift is an exact permutation matrix: every probe entry and every
    signalling term is 0 or 1, so no deviation lies near the tolerance.
    """
    lift = quantum.from_classical(u)
    rel = influence_relation(u)
    assert np.array_equal(influence_relation(lift), rel)
    assert np.array_equal(lift.wire_signalling(), rel)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_the_lift_identity_on_every_permutation(dims):
    for u in classical.all_reversible_channels(composite(*zip("AB", dims))):
        assert_lift_identity(u)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (1, 2, 3), (2, 2, 2, 2)])
def test_the_lift_identity_on_seeded_channels(dims):
    system = composite(*zip("ABCD", dims))
    rng = np.random.default_rng([2020, *dims])
    for _ in range(40):
        assert_lift_identity(classical.random_reversible(system, rng))
