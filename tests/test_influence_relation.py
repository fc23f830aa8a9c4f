"""``influence_relation`` decides every single-wire neighbourhood in one pass.

The reference is ``neighbourhood(u, [i], tol)``, one probe process per input
wire; ``ca`` and ``analyze`` call the relation and build no probe channel.
"""

from pathlib import Path

import numpy as np
import pytest

from causal_lens import causal, classical, quantum
from causal_lens.automata import build_ring, neighbourhood_maps
from causal_lens.causal import influence_relation, iterate, neighbourhood, t_process
from causal_lens.classical import ClassicalChannel
from causal_lens.cli import load_rule_file, main
from causal_lens.errors import ConsistencyError, SpecError
from causal_lens.quantum import UnitaryChannel
from causal_lens.systems import composite

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
    u = classical.cnot()
    u = quantum.from_classical(u) if model == "quantum" else u
    monkeypatch.setattr(
        causal, "_idle_outputs", lambda u, grid, tol: np.ones((len(grid), len(u.output)), bool)
    )
    match = "did not combine into a joint factorization"
    with pytest.raises(ConsistencyError, match=match):
        influence_relation(u)
    with pytest.raises(ConsistencyError, match=match):
        t_process(u, ["A"])


def test_the_classical_factor_certificate_backs_the_joint_test(monkeypatch):
    # with the grid-level test over-reporting too, only the factor's bijection
    # certificate is left to catch the false idle wires
    monkeypatch.setattr(
        causal, "_passes_through", lambda grid, axes, strides: np.ones(len(grid), bool)
    )
    with pytest.raises(ConsistencyError, match="did not combine"):
        influence_relation(classical.cnot())


def test_the_quantum_factor_certificate_rejects_a_non_unitary_block():
    # half of (identity x identity) is exactly its own identity pattern on the
    # second wire, but its block is not unitary
    grid = 0.5 * np.eye(4).reshape(1, 2, 2, 2, 2)
    assert quantum._delta_gap(grid, [(2, 4)]).max() <= 1e-9
    assert quantum._identity_factor(grid, [(1, 3)], 1e-9)[0].tolist() == [False]


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


def test_near_identity_cases_reach_both_outcomes():
    rings = [near_identity_ring(seed, cells, 3e-10) for seed, cells in NEAR]
    raised = [None in per_cell_outcomes(a.step, 1e-9) for a in rings]
    assert any(raised) and not all(raised)


def test_neighbourhood_maps_raise_where_the_relation_does():
    a = near_identity_ring(3, 4, 3e-10)
    with pytest.raises(ConsistencyError, match="did not combine"):
        neighbourhood_maps(a, 1, 1e-9)
