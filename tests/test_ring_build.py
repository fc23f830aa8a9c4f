"""``build_ring`` by contraction against the step composed gate by gate.

``composed_step`` is the reference: each gate embedded on the ring with
``embed_on`` and composed onto the step, in the channel's own model.
"""

from pathlib import Path

import numpy as np
import pytest

from causal_lens import classical, quantum
from causal_lens.automata import build_ring
from causal_lens.causal import embed_on
from causal_lens.classical import ClassicalChannel
from causal_lens.cli import load_rule_file
from causal_lens.errors import SpecError
from causal_lens.quantum import UnitaryChannel
from causal_lens.systems import composite

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
RULES = ("single_cnot_layer_ring.json", "staggered_cnot_ring.json", "swap_chain_ring.json")
MODELS = {"classical": ClassicalChannel, "quantum": UnitaryChannel}


def composed_step(layers, cells, cell_dim, model):
    ring = composite(*((f"c{i}", cell_dim) for i in range(cells)))
    step = MODELS[model].identity(ring)
    for layer in layers:
        for gate, at in layer:
            names = [f"c{(at + k) % cells}" for k in range(len(gate.input))]
            step = embed_on(gate.with_names(names, names), ring).compose(step)
    return step


def assert_same_step(got, want):
    assert got.input == want.input and got.output == want.output
    if isinstance(want, ClassicalChannel):
        assert got.table == want.table
    else:
        assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-12


def overlapping(layers, cells):
    """True iff some gate is wider than the ring or two gates of a layer share a cell."""
    for layer in layers:
        spans = [[(at + k) % cells for k in range(len(g.input))] for g, at in layer]
        if any(len(g.input) > cells for g, _ in layer):
            return True
        cells_used = [c for span in spans for c in span]
        if len(set(cells_used)) != len(cells_used):
            return True
    return False


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("cells", range(2, 7))
def test_fixture_rules_match_the_composed_step(rule, model, cells):
    cell_dim, layers = load_rule_file(str(FIXTURES / rule), model)
    if overlapping(layers, cells):
        with pytest.raises(SpecError, match="overlapping gates|exceeds ring size"):
            build_ring(layers, cells, cell_dim, model=model)
        return
    a = build_ring(layers, cells, cell_dim, model=model)
    assert_same_step(a.step, composed_step(layers, cells, cell_dim, model))


def random_gate(rng, model, arity, cell_dim):
    block = composite(*zip("ABC", [cell_dim] * arity))
    if model == "classical":
        return classical.random_reversible(block, rng)
    kind = rng.random()
    if kind < 0.2 and arity == 1 and cell_dim == 2:
        return quantum.hadamard()
    if kind < 0.5:
        return quantum.from_classical(classical.random_reversible(block, rng))
    return quantum.random_unitary(block, rng)


def random_layers(rng, model, cells, cell_dim, boundary):
    """1-3 layers of non-overlapping gates of arity 1-3; wrapping only on a ring."""
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
    return layers


def random_cases():
    rng = np.random.default_rng(2015)
    out = []
    for model in sorted(MODELS):
        for cells in range(2, 7):
            for cell_dim in (2, 3):
                if model == "quantum" and cell_dim**cells > 64:
                    continue
                for k in range(4):
                    boundary = "open" if k == 3 else "ring"
                    layers = random_layers(rng, model, cells, cell_dim, boundary)
                    out.append((model, cells, cell_dim, boundary, layers))
    return out


def test_random_cases_cover_the_required_shapes():
    cases = random_cases()
    assert {(m, c) for m, c, *_ in cases} == {(m, c) for m in MODELS for c in range(2, 7)}
    arities = {len(g.input) for *_, layers in cases for layer in layers for g, _ in layer}
    assert arities == {1, 2, 3}
    # some gate wraps around the ring
    assert any(
        at + len(g.input) > cells
        for _, cells, _, boundary, layers in cases
        if boundary == "ring"
        for layer in layers
        for g, at in layer
    )


@pytest.mark.parametrize("model,cells,cell_dim,boundary,layers", random_cases())
def test_random_layouts_match_the_composed_step(model, cells, cell_dim, boundary, layers):
    a = build_ring(layers, cells, cell_dim, model=model, boundary=boundary)
    assert_same_step(a.step, composed_step(layers, cells, cell_dim, model))
    assert a.layers == tuple(tuple((type(g).__name__, at) for g, at in ls) for ls in layers)


@pytest.mark.parametrize("model", sorted(MODELS))
def test_build_ring_constructs_only_the_step(monkeypatch, model):
    _, layers = load_rule_file(str(FIXTURES / "staggered_cnot_ring.json"), model)
    cls = MODELS[model]
    built = []
    real = cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda self: built.append(self) or real(self))
    for name in ("compose", "tensor", "invert"):
        monkeypatch.setattr(cls, name, lambda *a, name=name: pytest.fail(name))
    a = build_ring(layers, 6, 2, model=model)
    assert built == [a.step]
