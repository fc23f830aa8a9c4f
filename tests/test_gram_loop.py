"""Both quantum readings of every wire pair come from one Gram loop.

``quantum._gram_deltas`` reads ``δ[i, t]`` off the probe of ``U`` at each
input (side 0) and off the probe of ``Uᵀ`` at each output (side 1), the
signalling reading, with the blocks of both sides in one stack per grid shape.
The references here are the per-pair kernels: each input's probe stack on
its own, and ``_signalling_delta`` of ``_signalling_terms`` for each pair.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_lens import classical, quantum
from causal_lens.automata import build_ring
from causal_lens.causal import influence_relation, t_process, wire_relations
from causal_lens.classical import ClassicalChannel
from causal_lens.cli import load_rule_file
from causal_lens.errors import SpecError
from causal_lens.quantum import (
    DEFAULT_TOL,
    UnitaryChannel,
    _heisenberg,
    _pair_deltas,
    _same_reading,
    _signalling_delta,
    _signalling_terms,
)
from causal_lens.systems import composite

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# (input wires, output wires): equal dims, mixed radix, a dim-1 wire, primed outputs
SYSTEMS = [
    ((("A", 2), ("B", 2)), (("A", 2), ("B", 2))),
    ((("A", 3), ("B", 2)), (("A", 3), ("B", 2))),
    ((("A", 2), ("B", 2), ("C", 2)), (("A", 2), ("B", 2), ("C", 2))),
    ((("A", 2), ("B", 3)), (("X", 3), ("Y", 2))),
    ((("A", 2), ("B", 1), ("C", 2)), (("A", 2), ("B", 1), ("C", 2))),
    ((("A", 2), ("B", 2), ("C", 2)), (("A'", 2), ("B'", 2), ("C'", 2))),
]


@st.composite
def channels(draw):
    """A Haar-ish unitary, a lifted permutation, or one of them beside an identity."""
    inp, out = (composite(*wires) for wires in draw(st.sampled_from(SYSTEMS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    head = inp.restrict(inp.names[:1])
    kind = draw(st.sampled_from(["haar", "permutation", "beside"]))
    if kind == "haar":
        return quantum.random_unitary(inp, rng, out)
    if kind == "permutation":
        return quantum.from_classical(classical.random_reversible(inp, rng, out))
    u = quantum.random_unitary(head, rng).tensor(UnitaryChannel.identity(inp.restrict(inp.names[1:])))
    return u.with_names(output_names=out.names)


def per_input_probe_deltas(u):
    """``δ[i, t]``, one probe stack per input wire, swept on its own."""
    n = len(u.output)
    pairs = [(k + 2, n + k + 3) for k in range(n)]
    return np.array([_pair_deltas(_heisenberg(u, [(0, (i,))]), pairs)[0] for i in range(len(u.input))])


def per_pair_signalling_deltas(u):
    """``δ[i, t]`` of the signalling terms of each pair, one at a time."""
    return np.array(
        [
            [_signalling_delta(_signalling_terms(u, (i,), (t,))) for t in u.output.names]
            for i in u.input.names
        ]
    )


@settings(max_examples=60, deadline=None)
@given(channels())
def test_one_loop_reads_both_sides_as_the_per_pair_kernels(u):
    influence, signalling = wire_relations(u)
    assert np.array_equal(influence, influence_relation(u))
    assert np.array_equal(signalling, u.wire_signalling())
    probe, heisenberg = quantum._gram_deltas(u, (0, 1), DEFAULT_TOL)
    assert _same_reading(probe, per_input_probe_deltas(u))
    assert _same_reading(heisenberg, per_pair_signalling_deltas(u))
    # one side alone reads the same values, the other side staying 0
    alone = quantum._gram_deltas(u, (0,), DEFAULT_TOL)
    assert np.array_equal(alone[0], probe) and not alone[1].any()
    alone = quantum._gram_deltas(u, (1,), DEFAULT_TOL)
    assert np.array_equal(alone[1], heisenberg) and not alone[0].any()


def spy(monkeypatch, module, name, calls):
    """Record the arguments of every call of ``module.name``."""
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("phase", [1.0, 1j], ids=["real", "complex"])
def test_a_four_cell_ring_makes_one_gram_product_for_both_sides(monkeypatch, phase):
    cell_dim, layers = load_rule_file(str(FIXTURES / "single_cnot_layer_ring.json"), "quantum")
    step = build_ring(layers, 4, cell_dim, model="quantum").step
    u = UnitaryChannel(step.input, step.output, phase * step.matrix)
    products, sweeps = [], []
    spy(monkeypatch, quantum, "_heisenberg", products)
    spy(monkeypatch, quantum, "_pair_deltas", sweeps)
    influence, signalling = wire_relations(u)
    assert len(products) == len(sweeps) == 1
    (v, blocks), = products
    assert v is u
    assert sorted(blocks) == [(side, (k,)) for side in (0, 1) for k in range(4)]
    # the probes lead the stack, so the certificate and joint tests read a prefix
    assert [side for side, _ in blocks] == [0] * 4 + [1] * 4
    assert np.array_equal(influence, signalling)


def quantum_cases():
    # a cnot leaves no output idle for either probe; beside an idle bit, every
    # probe has one; a 6-cell ring's step leaves some cells idle for each probe
    yield quantum.from_classical(classical.cnot())
    beside = classical.cnot().tensor(ClassicalChannel.identity(composite(("C", 2))))
    yield quantum.from_classical(beside)
    cell_dim, layers = load_rule_file(str(FIXTURES / "staggered_cnot_ring.json"), "quantum")
    a = build_ring(layers, 6, cell_dim, model="quantum")
    yield a.step
    yield a.step.compose(a.step)
    yield quantum.random_unitary(composite(("A", 2), ("B", 2)), np.random.default_rng(5)).tensor(
        UnitaryChannel.identity(composite(("C", 3)))
    )


@pytest.mark.parametrize("case", range(5))
def test_one_joint_test_per_probe_with_an_idle_wire(monkeypatch, case):
    u = list(quantum_cases())[case]
    calls = []  # each joint test's (probe grid, idle pairs, ...)
    spy(monkeypatch, quantum, "_identity_factor", calls)
    rel = influence_relation(u)
    assert len(calls) == int((~rel).any(axis=1).sum())
    # each call factors on exactly the probe's idle wires
    idle_counts = sorted(len(pairs) for _, pairs, *_ in calls)
    assert idle_counts == sorted(int(n) for n in (~rel).sum(axis=1) if n)
    for i, name in enumerate(u.input.names):
        calls.clear()
        tp = t_process(u, [name])
        assert len(calls) == (1 if tp.idle_subset else 0)
        assert tp.idle_subset == {t for t, hit in zip(u.output.names, rel[i]) if not hit}


def test_a_probe_with_no_idle_wire_is_still_certified(monkeypatch):
    # no probe of a cnot has an idle wire, so no joint test runs, but a stack
    # failing its certificate is still caught, on both entry points
    u = quantum.from_classical(classical.cnot())
    calls = []
    spy(monkeypatch, quantum, "_identity_factor", calls)
    influence_relation(u)
    t_process(u, ["A"])
    assert calls == []
    real = quantum._heisenberg
    monkeypatch.setattr(quantum, "_heisenberg", lambda v, blocks: 2 * real(v, blocks))
    with pytest.raises(SpecError, match="unitarity certificate failed"):
        influence_relation(u)
    with pytest.raises(SpecError, match="unitarity certificate failed"):
        t_process(u, ["A"])


def test_mixed_radix_blocks_fall_into_separate_stacks(monkeypatch):
    # inputs (2, 3), outputs (3, 2): each block's grid has its own shape (the
    # probe at A is (2; 3, 2), the Heisenberg image at Y is (2; 2, 3)), so the
    # four blocks take four products of the same loop
    inp, out = composite(("A", 2), ("B", 3)), composite(("X", 3), ("Y", 2))
    u = quantum.random_unitary(inp, np.random.default_rng(2), out)
    products = []
    spy(monkeypatch, quantum, "_heisenberg", products)
    influence, signalling = wire_relations(u)
    assert sorted(blocks for _, blocks in products) == [
        [(0, (0,))],
        [(0, (1,))],
        [(1, (0,))],
        [(1, (1,))],
    ]
    assert influence.all() and np.array_equal(influence, signalling)
