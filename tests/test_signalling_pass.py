"""``ca`` decides each step's whole signalling relation in one pass.

The reference is built here, one ``u.signals([i], [t], tol)`` call per cell
pair of the iterated step; the library's ``neighbourhood_maps`` makes no
``signals`` call at all (``wire_signalling`` decides every pair at once).
"""

from pathlib import Path

import numpy as np
import pytest

from causal_lens import classical, quantum
from causal_lens.automata import RingAutomaton, build_ring, neighbourhood_maps
from causal_lens.classical import ClassicalChannel
from causal_lens.cli import load_rule_file, main
from causal_lens.errors import ConsistencyError, SpecError
from causal_lens.quantum import UnitaryChannel, _signalling_delta, _signalling_terms
from causal_lens.systems import composite

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
RULES = ("single_cnot_layer_ring.json", "staggered_cnot_ring.json", "swap_chain_ring.json")
MAX_CELLS = {"classical": 12, "quantum": 6}
MAX_STEPS = 3


def pairwise_signalling(u, tol):
    """The signalling relation ``[input cell, output cell]``, one ``signals`` call per pair."""
    return np.array([[u.signals([i], [t], tol) for t in u.output.names] for i in u.input.names])


def assert_one_pass_matches_pairwise(a, steps, tol=quantum.DEFAULT_TOL):
    u = a.step  # U^t at step count t
    for _, signalling in neighbourhood_maps(a, steps, tol):
        assert np.array_equal(signalling, pairwise_signalling(u, tol))
        u = a.step.compose(u)


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


def random_ring(rng, model, cells, cell_dim, wrap):
    """A ring of 1-3 layers of non-overlapping random gates of arity 1-3; a gate may
    wrap around the ring only if ``wrap``."""
    layers = []
    for _ in range(int(rng.integers(1, 4))):
        start = int(rng.integers(0, cells)) if wrap else 0
        layer, r = [], 0
        while r < cells:
            arity = int(rng.integers(1, min(3, cells - r) + 1))
            if rng.random() < 0.7:
                layer.append((random_gate(rng, model, arity, cell_dim), (start + r) % cells))
                r += arity
            else:
                r += 1
        layers.append(layer)
    return build_ring(layers, cells, cell_dim, model=model)


def random_cases():
    """Cell dims 2 and 3, wrapping and unwrapped layouts, every size under the cone budget."""
    out = []
    for model, bits in (("classical", 12), ("quantum", 6)):
        for cell_dim in (2, 3):
            for cells in range(2, 13):
                if cells * np.log2(cell_dim) > bits:
                    break
                for wrap in (True, False):
                    out.append((model, cells, cell_dim, wrap))
    return out


@pytest.mark.parametrize("model,cells,cell_dim,wrap", random_cases())
def test_random_layouts_one_pass_matches_pairwise_signals(model, cells, cell_dim, wrap):
    rng = np.random.default_rng([2020, cells, cell_dim, not wrap, model == "quantum"])
    a = random_ring(rng, model, cells, cell_dim, wrap)
    assert_one_pass_matches_pairwise(a, MAX_STEPS if cells <= 8 else 2)


def test_random_cases_cover_cell_dim_3_and_unwrapped_layouts():
    cases = random_cases()
    assert {(m, d, w) for m, _, d, w in cases} == {
        (m, d, w) for m in MAX_CELLS for d in (2, 3) for w in (True, False)
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
    return RingAutomaton(step)


def split_tolerance(u):
    """A ``tol`` halfway between two adjacent pair deltas near their median.

    Deltas equal up to rounding count as one, so ``tol`` lies well clear of each.
    """
    devs = sorted(
        {
            round(_signalling_delta(_signalling_terms(u, [i], [t])), 12)
            for i in u.input.names
            for t in u.output.names
        }
    )
    k = len(devs) // 2
    return (devs[k - 1] + devs[k]) / 2


NEAR = [(seed, cells, eps) for seed in range(6) for cells in (2, 3, 4) for eps in (0.01, 0.05)]


@pytest.mark.parametrize("seed,cells,eps", NEAR)
def test_near_identity_rings_match_pairwise_signals_on_both_sides_of_tol(seed, cells, eps):
    a = near_identity_ring(seed, cells, eps)
    tol = split_tolerance(a.step)
    # quantumly the signalling sets are the influence sets, decided on the one delta
    ((_, signalling),) = neighbourhood_maps(a, 1, tol)
    want = pairwise_signalling(a.step, tol)
    assert np.array_equal(signalling, want)
    assert want.any() and not want.all()
    assert np.array_equal(a.step.wire_signalling(tol), want)


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
    # an influence pass that forgets every wire: classically signalling escapes
    # the neighbourhood, quantumly the probe's deltas differ from the signalling ones
    cell_dim, layers = load_rule_file(str(FIXTURES / "staggered_cnot_ring.json"), model)
    a = build_ring(layers, 6, cell_dim, model=model)
    def forgetful(u, tol):
        return np.zeros((len(u.input), len(u.output)), bool)

    if model == "quantum":
        # the probe side of the Gram loop reads every delta as 0
        real = quantum._gram_deltas
        monkeypatch.setattr(
            quantum,
            "_gram_deltas",
            lambda u, sides, tol: [forgetful(u, tol), real(u, sides, tol)[1]],
        )
        match = "readings of a quantum delta differ"
    else:
        monkeypatch.setattr(ClassicalChannel, "_influence_relation", forgetful)
        match = "escapes its causal neighbourhood"
    with pytest.raises(ConsistencyError, match=match):
        neighbourhood_maps(a, 1)


MIXED = composite(("A", 3), ("B", 1), ("C", 2)), composite(("X", 2), ("Y", 3), ("Z", 1))
# two outputs of dim 2 share a stack
REPEATED = (
    composite(("A", 3), ("B", 1), ("C", 2), ("D", 2)),
    composite(("X", 2), ("Y", 3), ("Z", 1), ("W", 2)),
)


def mixed_dim_channels(model, inp, out, seed=7, count=10):
    """Random channels between wires of dims 1-3, lifted or Haar in the quantum model."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        u = classical.random_reversible(inp, rng, out)
        if model == "quantum":
            lifted = quantum.from_classical(u)
            u = quantum.random_unitary(inp, rng, out) if rng.random() < 0.5 else lifted
        yield u


@pytest.mark.parametrize("model", sorted(MAX_CELLS))
def test_wire_signalling_on_mixed_and_trivial_wires(model):
    # wires of dims 1-3 with distinct input and output names, against signals
    inp, out = MIXED
    for u in mixed_dim_channels(model, inp, out):
        want = [[u.signals([i], [t]) for t in out.names] for i in inp.names]
        assert u.wire_signalling().tolist() == want


# -- the quantum pass: one product per output wire, stacked by dim ---------------------


def stack_sizes(monkeypatch):
    """Record the length of every output stack that ``wire_signalling`` takes."""
    sizes = []
    chunks = quantum._dim_chunks

    def spy(dims, entry_bytes):
        for dim, part in chunks(dims, entry_bytes):
            sizes.append(len(part))
            yield dim, part

    monkeypatch.setattr(quantum, "_dim_chunks", spy)
    return sizes


@pytest.mark.parametrize("dims", [MIXED, REPEATED], ids=["mixed", "repeated"])
def test_quantum_wire_signalling_matches_signals_when_stacks_split(monkeypatch, dims):
    inp, out = dims
    channels = list(mixed_dim_channels("quantum", inp, out, seed=11))
    wants = [[[u.signals([i], [t]) for t in out.names] for i in inp.names] for u in channels]
    sizes = stack_sizes(monkeypatch)
    whole = [u.wire_signalling().tolist() for u in channels]
    assert max(sizes) == (2 if dims is REPEATED else 1)
    monkeypatch.setattr(classical, "_CHECK_CHUNK_BYTES", 1)
    sizes.clear()
    for u, want, w in zip(channels, wants, whole):
        assert u.wire_signalling().tolist() == want == w
    assert set(sizes) == {1}


@pytest.mark.parametrize("seed,cells,eps", NEAR)
def test_near_identity_rings_split_stacks_match_signals_on_both_sides_of_tol(
    monkeypatch, seed, cells, eps
):
    u = near_identity_ring(seed, cells, eps).step
    tol = split_tolerance(u)
    want = pairwise_signalling(u, tol)
    sizes = stack_sizes(monkeypatch)
    whole = u.wire_signalling(tol)
    assert max(sizes) == cells  # under the default budget every output shares one stack
    monkeypatch.setattr(classical, "_CHECK_CHUNK_BYTES", 1)
    sizes.clear()
    split = u.wire_signalling(tol)
    assert set(sizes) == {1}
    assert np.array_equal(whole, split)
    assert np.array_equal(split, want)
    assert split.any() and not split.all()


@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (2, 2, 2, 2), (3, 1, 2), (1, 2, 3, 2)])
def test_quantum_wire_signalling_is_one_heisenberg_stack_per_output_dim(monkeypatch, dims):
    calls = []
    heisenberg = quantum._heisenberg

    def spy(v, blocks):
        calls.append((v, list(blocks)))
        return heisenberg(v, blocks)

    monkeypatch.setattr(quantum, "_heisenberg", spy)
    system = composite(*zip("ABCD", dims))
    u = quantum.random_unitary(system, np.random.default_rng(len(dims)))
    u.wire_signalling()
    # one call per equal-dim chunk of output wires (one chunk each here), all
    # on the signalling side, the Gram kernel on U^T
    assert len(calls) == len(set(dims))
    for v, blocks in calls:
        assert v is u and {side for side, _ in blocks} == {1}
        assert len({dims[k] for _, (k,) in blocks}) == 1
    # n blocks, not n^2: each output wire in exactly one
    blocks = sorted(b for _, bs in calls for b in bs)
    assert blocks == [(1, (k,)) for k in range(len(dims))]
