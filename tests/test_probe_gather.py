"""The classical probe process, gathered from the table, against its definition.

The reference builds the probe by composition, as the paper defines it:
``(identity x u)`` after (swap the copies with the probed inputs) after
``(identity x u^-1)``. Its idle set comes from a per-wire
``factors_as_identity`` sweep.
"""

import itertools

import numpy as np
import pytest

from causal_lens import classical
from causal_lens.causal import reorder_wires, t_process
from causal_lens.classical import ClassicalChannel
from causal_lens.systems import composite


def composed_probe(u: ClassicalChannel, probed, copies) -> ClassicalChannel:
    copy_sys = composite(
        *((c, u.input.parts[u.input.position(n)].dim) for c, n in zip(copies, probed))
    )
    padded = copy_sys.concat(u.input)
    source = list(range(len(padded)))
    for c, n in zip(copies, probed):
        i, j = padded.position(c), padded.position(n)
        source[i], source[j] = source[j], source[i]
    swap_table = []
    for x in range(padded.total_dim):
        digits = padded.unflatten(x)
        swap_table.append(padded.flatten([digits[s] for s in source]))
    swap = ClassicalChannel(padded, padded, tuple(swap_table))
    back = ClassicalChannel.identity(copy_sys).tensor(u.invert())
    fwd = ClassicalChannel.identity(copy_sys).tensor(u)
    return fwd.compose(swap).compose(back)


def controlled_channel(block, rng: np.random.Generator) -> ClassicalChannel:
    """The first wire passes through and picks a random permutation of the rest."""
    d_rest = block.total_dim // block.dims[0]
    table = [a * d_rest + int(v) for a in range(block.dims[0]) for v in rng.permutation(d_rest)]
    return ClassicalChannel(block, block, tuple(table))


def mixed_radix_channel(rng: np.random.Generator, primed: bool) -> ClassicalChannel:
    """A seeded channel on 1-4 wires of dims 1-4, often with idle wires."""
    n = int(rng.integers(1, 5))
    dims = [int(d) for d in rng.integers(1, 5, size=n)]
    names = [chr(ord("A") + k) for k in range(n)]
    # a tensor product of random blocks, read back in a shuffled wire order
    cuts = sorted(set(int(c) for c in rng.integers(1, n + 1, size=int(rng.integers(0, n)))))
    bounds = [0] + [c for c in cuts if c < n] + [n]
    u = None
    for lo, hi in zip(bounds, bounds[1:]):
        block = composite(*zip(names[lo:hi], dims[lo:hi]))
        kind = rng.random()
        if kind < 0.2:
            part = ClassicalChannel.identity(block)
        elif kind < 0.5 and hi - lo > 1:
            part = controlled_channel(block, rng)
        else:
            part = classical.random_reversible(block, rng)
        u = part if u is None else u.tensor(part)
    order = list(u.input.names)
    rng.shuffle(order)
    u = reorder_wires(u, input_order=order, output_order=order)
    if primed:
        u = u.with_names(output_names=[f"{w}'" for w in u.output.names])
    return u


def probe_sets(u: ClassicalChannel):
    names = u.input.names
    yield ()
    for w in names:
        yield (w,)
    if len(names) > 1:
        yield names[:2]
        yield names


def cases():
    rng = np.random.default_rng(2012)
    out = []
    for k in range(60):
        u = mixed_radix_channel(rng, primed=bool(k % 2))
        out.extend((u, probe) for probe in probe_sets(u))
    return out


def test_cases_cover_the_required_shapes():
    shapes = cases()
    dims = {d for u, _ in shapes for d in u.input.dims}
    assert dims == {1, 2, 3, 4}
    assert any(len(p) == 0 for _, p in shapes)
    assert any(len(p) == 1 for _, p in shapes)
    assert any(len(p) > 1 for _, p in shapes)
    assert any(u.output.names != u.input.names for u, _ in shapes)
    assert any(u.output.names == u.input.names for u, _ in shapes)
    # both outcomes of the idle test occur
    idle_sizes = {len(t_process(u, p).idle_subset) for u, p in shapes}
    assert 0 in idle_sizes and max(idle_sizes) >= 2


@pytest.mark.parametrize("u,probe", cases())
def test_gathered_probe_matches_composition(u, probe):
    tp = t_process(u, probe)
    ref = composed_probe(u, tp.probed, tp.probe_copies)
    assert tp.channel.input == ref.input and tp.channel.output == ref.output
    assert tp.channel.table == ref.table
    sweep = frozenset(
        w for w in u.output.names if ref.factors_as_identity((w,)) is not None
    )
    assert tp.idle_subset == sweep
    idle = tuple(w for w in u.output.names if w in sweep)
    want = ref.factors_as_identity(idle)
    assert want is not None
    assert (tp.factor.input, tp.factor.output, tp.factor.table) == (
        want.input,
        want.output,
        want.table,
    )


def test_gathered_probe_on_controlled_shift_beside_idle_wire():
    # a controlled shift on two dim-3 wires, next to an idle dim-4 wire
    u = classical.cnot(dim=3, names=("A", "B")).tensor(
        ClassicalChannel.identity(composite(("C", 4)))
    )
    for probe in itertools.chain([()], ([w] for w in "ABC"), [("A", "C")]):
        tp = t_process(u, probe)
        ref = composed_probe(u, tp.probed, tp.probe_copies)
        assert tp.channel.table == ref.table
    assert t_process(u, ["B"]).idle_subset == frozenset({"C"})
    assert t_process(u, ["C"]).idle_subset == frozenset({"A", "B"})
