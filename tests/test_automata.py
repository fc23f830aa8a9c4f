import dataclasses

import numpy as np
import pytest

from causal_lens import classical, quantum
from causal_lens.automata import RingAutomaton, build_ring, neighbourhood_maps
from causal_lens.classical import ClassicalChannel
from causal_lens.errors import BudgetError, SpecError
from causal_lens.systems import composite


def last_map(a, steps):
    """``(influence, signalling)`` of ``steps`` steps."""
    return neighbourhood_maps(a, steps)[-1]


def cones(a, max_steps):
    """Both cone sizes per cell (the row sums) for each step count up to ``max_steps``."""
    return [(r.sum(1).tolist(), s.sum(1).tolist()) for r, s in neighbourhood_maps(a, max_steps)]


def named(row):
    """The cells set in one relation row, by name."""
    return {f"c{k}" for k in np.flatnonzero(row)}


def strict_subset_rows(small, big):
    """Per row ``i``: ``small[i]`` is a strict subset of ``big[i]``."""
    return ~(small & ~big).any(1) & (big & ~small).any(1)


def staggered_cnot_layers(cells, model="classical"):
    gate = classical.cnot() if model == "classical" else quantum.cnot()
    even = [(gate, i) for i in range(0, cells, 2)]
    odd = [(gate, i) for i in range(1, cells, 2)]
    return [even, odd]


def test_build_single_cnot_layer_is_16_element_permutation():
    a = build_ring([[(classical.cnot(), 0), (classical.cnot(), 2)]], cells=4, cell_dim=2)
    assert len(a.step.table) == 16
    # direct composition: c1 ^= c0 and c3 ^= c2
    for x in range(16):
        c = a.system.unflatten(x)
        want = (c[0], c[1] ^ c[0], c[2], c[3] ^ c[2])
        assert a.step.apply_values(c) == want


def test_empty_layers_identity_step():
    a = build_ring([], cells=3, cell_dim=2)
    assert a.step.table.tolist() == list(range(8))


def test_two_staggered_layers_compose():
    a = build_ring(staggered_cnot_layers(4), cells=4, cell_dim=2)
    # layer 1: c1^=c0, c3^=c2; layer 2: c2^=c1', c0^=c3'
    for x in range(16):
        c = list(a.system.unflatten(x))
        c[1] ^= c[0]
        c[3] ^= c[2]
        c[2] ^= c[1]
        c[0] ^= c[3]
        assert a.step.apply_values(a.system.unflatten(x)) == tuple(c)


def test_overlapping_gates_rejected():
    with pytest.raises(SpecError):
        build_ring([[(classical.cnot(), 0), (classical.cnot(), 1)]], cells=4, cell_dim=2)


THREE_BIT_IDENTITY = ClassicalChannel.identity(composite(("A", 2), ("B", 2), ("C", 2)))


@pytest.mark.parametrize(
    "layers,cells,cell_dim,model,message",
    [
        ([], 1, 2, "classical", "a ring needs at least 2 cells of dimension >= 2"),
        ([], 3, 1, "classical", "a ring needs at least 2 cells of dimension >= 2"),
        ([], 3, 2, "stochastic", "model must be one of ['classical', 'quantum']"),
        (
            [[(quantum.cnot(), 0)]],
            3,
            2,
            "classical",
            "layer 0: gate model does not match 'classical'",
        ),
        (
            [[(THREE_BIT_IDENTITY, 0)]],
            2,
            2,
            "classical",
            "layer 0: gate arity 3 exceeds ring size",
        ),
        (
            [[], [(classical.cnot(dim=3), 0)]],
            3,
            2,
            "classical",
            "layer 1: gate wires must all have the cell dimension 2",
        ),
    ],
    ids=[
        "one-cell", "dim-1-cells", "unknown-model", "model-mismatch", "arity",
        "cell-dim",
    ],
)
def test_build_ring_rejects_bad_specs(layers, cells, cell_dim, model, message):
    with pytest.raises(SpecError) as exc:
        build_ring(layers, cells=cells, cell_dim=cell_dim, model=model)
    assert str(exc.value) == message


def test_neighbourhood_maps_needs_a_step():
    with pytest.raises(SpecError, match="steps must be >= 1"):
        neighbourhood_maps(build_ring([], cells=2, cell_dim=2), 0)


def test_a_ring_is_its_step_and_spans():
    assert [f.name for f in dataclasses.fields(RingAutomaton)] == ["step", "spans"]
    a = build_ring([[(classical.cnot(), 0)]], cells=4, cell_dim=2)
    bare = RingAutomaton(a.step)  # no layers: the light cone is the identity
    assert bare.spans == () and np.array_equal(bare.light_cone(), np.eye(4, dtype=bool))
    assert a.system is a.step.input


def test_wraparound():
    a = build_ring([[(classical.cnot(), 3)]], cells=4, cell_dim=2)  # wraps c3 -> c0
    assert a.spans == (((3, 0),),)


def test_budget_cap():
    with pytest.raises(BudgetError):
        build_ring([], cells=7, cell_dim=2, model="quantum")
    with pytest.raises(BudgetError):
        build_ring([], cells=13, cell_dim=2, model="classical")


def test_a_huge_ring_is_refused_without_computing_its_dimension():
    # 3**(10**8) has some 48 million digits; past the cap's bit length no power is formed
    message = r"^ring dimension 3\*\*100000000 exceeds the cap of 4096$"
    with pytest.raises(BudgetError, match=message):
        build_ring([], cells=10**8, cell_dim=3)
    # either side of a cap that is a power of the cell dim
    assert build_ring([], cells=3, cell_dim=2, max_dim=8).step.input.total_dim == 8
    for cells, cap in ((4, 8), (3, 7)):
        message = rf"^ring dimension 2\*\*{cells} exceeds the cap of {cap}$"
        with pytest.raises(BudgetError, match=message):
            build_ring([], cells=cells, cell_dim=2, max_dim=cap)


def test_identity_automaton_neighbourhoods():
    a = build_ring([], cells=4, cell_dim=2)
    influence, signalling = last_map(a, 2)
    assert np.array_equal(influence, np.eye(4, dtype=bool))
    assert np.array_equal(signalling, np.eye(4, dtype=bool))


def test_single_cnot_layer_signalling_strictly_smaller():
    a = build_ring([[(classical.cnot(), 0), (classical.cnot(), 2)]], cells=4, cell_dim=2)
    influence, signalling = last_map(a, 1)
    # the target cell influences its control's output without signalling to it
    assert named(influence[1]) == {"c0", "c1"}
    assert named(signalling[1]) == {"c1"}
    assert strict_subset_rows(signalling, influence).any()


def test_quantized_layout_closes_the_gap():
    c = build_ring([[(classical.cnot(), 0), (classical.cnot(), 2)]], cells=4, cell_dim=2)
    q = build_ring(
        [[(quantum.cnot(), 0), (quantum.cnot(), 2)]], cells=4, cell_dim=2, model="quantum"
    )
    influence_c, _ = last_map(c, 1)
    influence_q, signalling_q = last_map(q, 1)
    assert np.array_equal(signalling_q, influence_q)
    assert np.array_equal(influence_q, influence_c)


def test_cones_identity_all_ones():
    a = build_ring([], cells=4, cell_dim=2)
    for causal_sizes, signalling_sizes in cones(a, 2):
        assert causal_sizes == [1, 1, 1, 1]
        assert signalling_sizes == [1, 1, 1, 1]


def test_cones_staggered_gap():
    a = build_ring(staggered_cnot_layers(6), cells=6, cell_dim=2)
    causal_sizes, signalling_sizes = cones(a, 2)[-1]
    assert any(c > s for c, s in zip(causal_sizes, signalling_sizes))
    assert all(c >= s for c, s in zip(causal_sizes, signalling_sizes))


def test_swap_chain_shifts_without_growing():
    gate = classical.swap_gate()
    a = build_ring([[(gate, 0), (gate, 2)], [(gate, 1), (gate, 3)]], cells=4, cell_dim=2)
    for causal_sizes, signalling_sizes in cones(a, 2):
        assert causal_sizes == [1, 1, 1, 1]
        assert signalling_sizes == [1, 1, 1, 1]
    influence, _ = last_map(a, 1)
    assert named(influence[0]) == {"c2"}  # shifted, not grown


def test_light_cone_containment():
    # causal cone after t steps stays inside the t-fold layout expansion
    a = build_ring(staggered_cnot_layers(6), cells=6, cell_dim=2)
    support = 2  # one step touches at most the two staggered-gate spans
    for t in (1, 2):
        influence, _ = last_map(a, t)
        for i, row in enumerate(influence):
            reach = {f"c{(i + d) % 6}" for d in range(-support * t, support * t + 1)}
            assert named(row) <= reach


def test_cone_budget():
    a = build_ring([], cells=4, cell_dim=2, model="quantum")
    neighbourhood_maps(a, 1)
    big = build_ring([], cells=12, cell_dim=2)
    neighbourhood_maps(big, 1)
    # the budget reads the model off the step: 8 bits pass classically, not quantumly
    neighbourhood_maps(RingAutomaton(build_ring([], cells=8, cell_dim=2).step), 1)
    bigger = build_ring([], cells=8, cell_dim=2, model="quantum", max_dim=256)
    with pytest.raises(BudgetError, match="capped at 6 cell-bits for the quantum model, got 8.0"):
        neighbourhood_maps(bigger, 1)
