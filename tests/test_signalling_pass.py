"""``ca`` decides each step's whole signalling relation in one pass.

The reference is built here, one ``u.signals([i], [t], tol)`` call per cell
pair of the iterated step; the library's ``_cell_neighbourhoods`` makes no
``signals`` call at all (``wire_signalling`` decides every pair at once).
"""

from pathlib import Path

import numpy as np
import pytest

from causal_lens import automata, classical, quantum
from causal_lens.automata import RingAutomaton, build_ring, neighbourhood_maps
from causal_lens.causal import iterate
from causal_lens.classical import ClassicalChannel
from causal_lens.cli import load_rule_file, main
from causal_lens.errors import ConsistencyError, SpecError
from causal_lens.quantum import UnitaryChannel, _delta_gap, _signalling_terms
from causal_lens.systems import composite

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
RULES = ("single_cnot_layer_ring.json", "staggered_cnot_ring.json", "swap_chain_ring.json")
MAX_CELLS = {"classical": 12, "quantum": 6}
MAX_STEPS = 3


def pairwise_signalling(u, tol):
    """Signalling set of every input cell, one ``signals`` call per pair."""
    return {
        i: frozenset(t for t in u.output.names if u.signals([i], [t], tol))
        for i in u.input.names
    }


def assert_one_pass_matches_pairwise(a, steps, tol=quantum.DEFAULT_TOL):
    maps = neighbourhood_maps(a, steps, tol)
    for t, entries in enumerate(maps, 1):
        want = pairwise_signalling(iterate(a.step, t), tol)
        assert {e.cell: e.signalling for e in entries} == want


def fixture_cases():
    for model in sorted(MAX_CELLS):
        for rule in RULES:
            for cells in range(2, MAX_CELLS[model] + 1):
                yield model, rule, cells


@pytest.mark.parametrize("model,rule,cells", list(fixture_cases()))
def test_fixture_rules_one_pass_matches_pairwise_signals(model, rule, cells):
    cell_dim, layers = load_rule_file(str(FIXTURES / rule), model)
    try:
        a = build_ring(layers, cells, cell_dim, model=model)
    except SpecError:  # the rule's gates overlap on so few cells
        return
    assert_one_pass_matches_pairwise(a, MAX_STEPS)


def random_gate(rng, model, arity, cell_dim):
    block = composite(*zip("ABC", [cell_dim] * arity))
    if model == "classical":
        return classical.random_reversible(block, rng)
    if rng.random() < 0.4:
        return quantum.from_classical(classical.random_reversible(block, rng))
    return quantum.random_unitary(block, rng)


def random_ring(rng, model, cells, cell_dim, boundary):
    """A ring of 1-3 layers of non-overlapping random gates of arity 1-3."""
    layers = []
    for _ in range(int(rng.integers(1, 4))):
        start = int(rng.integers(0, cells)) if boundary == "ring" else 0
        layer, r = [], 0
        while r < cells:
            arity = int(rng.integers(1, min(3, cells - r) + 1))
            if rng.random() < 0.7:
                layer.append((random_gate(rng, model, arity, cell_dim), (start + r) % cells))
                r += arity
            else:
                r += 1
        layers.append(layer)
    return build_ring(layers, cells, cell_dim, model=model, boundary=boundary)


def random_cases():
    """Cell dims 2 and 3, ring and open boundaries, every size under the cone budget."""
    out = []
    for model, bits in (("classical", 12), ("quantum", 6)):
        for cell_dim in (2, 3):
            for cells in range(2, 13):
                if cells * np.log2(cell_dim) > bits:
                    break
                for boundary in ("ring", "open"):
                    out.append((model, cells, cell_dim, boundary))
    return out


@pytest.mark.parametrize("model,cells,cell_dim,boundary", random_cases())
def test_random_layouts_one_pass_matches_pairwise_signals(model, cells, cell_dim, boundary):
    rng = np.random.default_rng([2020, cells, cell_dim, boundary == "open", model == "quantum"])
    a = random_ring(rng, model, cells, cell_dim, boundary)
    assert_one_pass_matches_pairwise(a, MAX_STEPS if cells <= 8 else 2)


def test_random_cases_cover_cell_dim_3_and_open_boundaries():
    cases = random_cases()
    assert {(m, d, b) for m, _, d, b in cases} == {
        (m, d, b) for m in MAX_CELLS for d in (2, 3) for b in ("ring", "open")
    }


# -- near the tolerance -------------------------------------------------------------


def near_identity_ring(seed, cells, eps):
    """A quantum ring: the swap-chain step (the identity below 4 cells) times exp(i eps H)."""
    rng = np.random.default_rng(seed)
    cell_dim, layers = load_rule_file(str(FIXTURES / "swap_chain_ring.json"), "quantum")
    base = build_ring(layers if cells >= 4 else [], cells, cell_dim, model="quantum")
    n = base.system.total_dim
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    step = UnitaryChannel(
        base.system, base.system, base.step.matrix @ (v * np.exp(1j * eps * w)) @ v.conj().T
    )
    return RingAutomaton(cells=cells, cell_dim=cell_dim, step=step, layers=(), model="quantum")


def split_tolerance(u):
    """A ``tol`` halfway between two adjacent pair deviations near their median."""
    devs = sorted(
        {
            float(np.max(_delta_gap(_signalling_terms(u, [i], [t]), [(2, 4)])))
            for i in u.input.names
            for t in u.output.names
        }
    )
    k = len(devs) // 2
    return (devs[k - 1] + devs[k]) / 2


NEAR = [(seed, cells, eps) for seed in range(6) for cells in (2, 3, 4) for eps in (0.01, 0.05)]


@pytest.mark.parametrize("seed,cells,eps", NEAR)
def test_near_identity_rings_match_pairwise_signals_on_both_sides_of_tol(
    monkeypatch, seed, cells, eps
):
    a = near_identity_ring(seed, cells, eps)
    tol = split_tolerance(a.step)
    # the probe process near the tolerance is not under test here: report every
    # cell as influenced, so that only the signalling sets are compared
    monkeypatch.setattr(
        automata, "influence_relation", lambda u, tol: np.ones((len(u.input), len(u.output)), bool)
    )
    (entries,) = neighbourhood_maps(a, 1, tol)
    want = pairwise_signalling(a.step, tol)
    assert {e.cell: e.signalling for e in entries} == want
    hits = [t in sig for sig in want.values() for t in a.system.names]
    assert any(hits) and not all(hits)
    assert np.array_equal(
        a.step.wire_signalling(tol),
        [[t in want[i] for t in a.system.names] for i in a.system.names],
    )


# -- what the pass replaces and what it keeps -----------------------------------------


@pytest.mark.parametrize("model", sorted(MAX_CELLS))
def test_neighbourhood_maps_makes_no_signals_call(monkeypatch, model):
    for cls in (ClassicalChannel, UnitaryChannel):
        monkeypatch.setattr(cls, "signals", lambda *a, **k: pytest.fail("signals called"))
    cell_dim, layers = load_rule_file(str(FIXTURES / "staggered_cnot_ring.json"), model)
    a = build_ring(layers, 6, cell_dim, model=model)
    assert len(neighbourhood_maps(a, MAX_STEPS)) == MAX_STEPS
    argv = ["ca", str(FIXTURES / "staggered_cnot_ring.json"), "--cells", "6", "--steps", "2"]
    assert main(argv + ["--model", model, "--format", "json"]) == 0


@pytest.mark.parametrize("model", sorted(MAX_CELLS))
def test_signalling_outside_the_reported_neighbourhood_still_raises(monkeypatch, model):
    cell_dim, layers = load_rule_file(str(FIXTURES / "staggered_cnot_ring.json"), model)
    a = build_ring(layers, 6, cell_dim, model=model)
    monkeypatch.setattr(
        automata, "influence_relation", lambda u, tol: np.zeros((len(u.input), len(u.output)), bool)
    )
    with pytest.raises(ConsistencyError, match="escapes its causal neighbourhood"):
        neighbourhood_maps(a, 1)


@pytest.mark.parametrize("model", sorted(MAX_CELLS))
def test_wire_signalling_on_mixed_and_trivial_wires(model):
    # wires of dims 1-3 with distinct input and output names, against signals
    rng = np.random.default_rng(7)
    inp = composite(("A", 3), ("B", 1), ("C", 2))
    out = composite(("X", 2), ("Y", 3), ("Z", 1))
    for _ in range(10):
        u = classical.random_reversible(inp, rng, out)
        if model == "quantum":
            lifted = quantum.from_classical(u)
            u = quantum.random_unitary(inp, rng, out) if rng.random() < 0.5 else lifted
        want = [[u.signals([i], [t]) for t in out.names] for i in inp.names]
        assert u.wire_signalling().tolist() == want
