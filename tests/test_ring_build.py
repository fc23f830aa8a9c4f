"""``build_ring`` by contraction against the step composed gate by gate.

``composed_step`` is the reference: each gate embedded on the ring with
``wiring.embed_on`` and composed onto the step, in the channel's own model.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from causal_lens import classical, quantum
from causal_lens.automata import RingAutomaton, build_ring, neighbourhood_maps
from causal_lens.causal import influence_relation
from causal_lens.classical import _digit_table
from causal_lens.classical import ClassicalChannel
from causal_lens.cli import load_rule_file
from causal_lens.errors import ConsistencyError, SpecError
from causal_lens.quantum import UnitaryChannel
from causal_lens.systems import CompositeSystem, composite

from wiring import embed_on

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
        assert got.table.tolist() == want.table.tolist()
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


def random_layers(rng, model, cells, cell_dim, wrap):
    """1-3 layers of non-overlapping gates of arity 1-3; a gate may wrap only if ``wrap``."""
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
    return layers


# the classical ring sizes ``ca`` runs beyond 6 cells, at cell dim 2
WIDE_CLASSICAL = (8, 10, 12)


def random_cases():
    rng = np.random.default_rng(2015)
    out = []
    for model in sorted(MODELS):
        for cells in range(2, 7):
            for cell_dim in (2, 3):
                if model == "quantum" and cell_dim**cells > 64:
                    continue
                for k in range(4):
                    layers = random_layers(rng, model, cells, cell_dim, wrap=k != 3)
                    out.append((model, cells, cell_dim, layers))
    for cells in WIDE_CLASSICAL:
        for k in range(4):
            layers = random_layers(rng, "classical", cells, 2, wrap=k != 3)
            out.append(("classical", cells, 2, layers))
    return out


def test_random_cases_cover_the_required_shapes():
    cases = random_cases()
    assert {(m, c) for m, c, *_ in cases} == {
        (m, c) for m in MODELS for c in range(2, 7)
    } | {("classical", c) for c in WIDE_CLASSICAL}
    arities = {len(g.input) for *_, layers in cases for layer in layers for g, _ in layer}
    assert arities == {1, 2, 3}
    # some gate wraps around the ring
    assert any(
        at + len(g.input) > cells
        for _, cells, _, layers in cases
        for layer in layers
        for g, at in layer
    )


@pytest.mark.parametrize("model,cells,cell_dim,layers", random_cases())
def test_random_layouts_match_the_composed_step(model, cells, cell_dim, layers):
    a = build_ring(layers, cells, cell_dim, model=model)
    assert_same_step(a.step, composed_step(layers, cells, cell_dim, model))
    assert a.spans == tuple(
        tuple(tuple((at + k) % cells for k in range(len(g.input))) for g, at in ls)
        for ls in layers
    )


def reference_light_cone(layers, cells):
    """Cells reachable from each input cell, layer by layer, through the gates' spans."""
    reach = [{i} for i in range(cells)]
    for layer in layers:
        spans = [{(at + k) % cells for k in range(len(g.input))} for g, at in layer]
        reach = [set().union(*(next((s for s in spans if c in s), {c}) for c in r)) for r in reach]
    return np.array([[t in r for t in range(cells)] for r in reach])


@pytest.mark.parametrize(
    "cells,cell_dim,layers",
    [case[1:] for case in random_cases() if case[0] == "classical"],
)
def test_random_classical_layouts_lie_inside_their_light_cone(cells, cell_dim, layers):
    a = build_ring(layers, cells, cell_dim)
    cone = a.light_cone()
    assert np.array_equal(cone, reference_light_cone(layers, cells))
    assert not (influence_relation(a.step) & ~cone).any()
    neighbourhood_maps(a, 1)  # the runtime check passes


def test_a_step_that_does_not_match_its_layers_escapes_the_light_cone():
    a = build_ring([[(classical.cnot(), 0)]], cells=4, cell_dim=2)
    assert a.light_cone().sum() == 4 + 2  # the identity plus c0 <-> c1
    moved = build_ring([[(classical.cnot(), 2)]], cells=4, cell_dim=2)
    with pytest.raises(ConsistencyError, match="escape the light cone of its layers"):
        neighbourhood_maps(dataclasses.replace(a, step=moved.step), 1)
    # a hand-built automaton with no layers claims the identity step
    with pytest.raises(ConsistencyError, match="escape the light cone of its layers"):
        neighbourhood_maps(RingAutomaton(a.step), 1)


def test_a_negative_at_is_cyclic():
    a = build_ring([[(classical.cnot(), -1)]], cells=4, cell_dim=2)
    assert a.spans == (((3, 0),),)
    want = build_ring([[(classical.cnot(), 3)]], cells=4, cell_dim=2).step
    assert a.step.table.tolist() == want.table.tolist()
    assert build_ring([[(classical.cnot(), -4)]], cells=4, cell_dim=2).spans == (((0, 1),),)


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


def test_the_classical_ring_and_passes_make_no_per_wire_codec_call(monkeypatch):
    cell_dim, layers = load_rule_file(str(FIXTURES / "staggered_cnot_ring.json"), "classical")
    for name in ("digits", "with_digits"):
        monkeypatch.setattr(CompositeSystem, name, lambda *a, name=name: pytest.fail(name))
    a = build_ring(layers, 6, cell_dim)
    _digit_table(a.step.output)
    a.step.wire_signalling()
