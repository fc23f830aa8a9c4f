import numpy as np
import pytest

from causal_lens.classical import (
    ClassicalChannel,
    ClassicalInstrument,
    all_reversible_channels,
    cnot,
    cyclic_shift,
    random_reversible,
    swap_gate,
    xor_feedback,
)
from causal_lens.errors import SpecError
from causal_lens.systems import composite

from wiring import reorder_wires

BITS = composite(("A", 2), ("B", 2))


def test_cnot_squares_to_identity():
    k = cnot()
    assert k.compose(k).table.tolist() == list(range(4))
    assert k.invert().table.tolist() == k.table.tolist()  # K inverse = K


def test_compose_identity_and_swap():
    f = random_reversible(BITS, np.random.default_rng(0))
    ident = ClassicalChannel.identity(BITS)
    assert ident.compose(f).table.tolist() == f.table.tolist()
    s = swap_gate()
    assert s.compose(s).table.tolist() == list(range(4))


def test_compose_mismatch():
    trits = composite(("A", 3))
    with pytest.raises(SpecError):
        cnot().compose(cyclic_shift(3).tensor(ClassicalChannel.identity(trits)))


def test_tensor_with_trivial_system_is_noop():
    f = cnot()
    triv = ClassicalChannel.identity(composite())
    assert f.tensor(triv).table.tolist() == f.table.tolist()
    assert triv.tensor(f).table.tolist() == f.table.tolist()


def test_tensor_identities():
    i2 = ClassicalChannel.identity(composite(("A", 2)))
    i2b = ClassicalChannel.identity(composite(("B", 2)))
    assert i2.tensor(i2b).table.tolist() == list(range(4))


def test_tensor_swap_with_idle_third_bit():
    # (a, b, c) -> (b, a, c), enumerated over all 8 inputs
    s = swap_gate()
    combined = s.tensor(ClassicalChannel.identity(composite(("C", 2))))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                assert combined.apply_values((a, b, c)) == (b, a, c)


def test_invert_cyclic_shift():
    shift = cyclic_shift(3)
    inv = shift.invert()
    for x in range(3):
        assert inv.apply(shift.apply(x)) == x
    assert inv.table.tolist() == [(x - 1) % 3 for x in range(3)]


def test_signals_cnot():
    k = cnot(out_names=("A'", "B'"))
    assert not k.signals(["B"], ["A'"])  # control marginal ignores the target
    assert k.signals(["A"], ["B'"])
    assert k.signals(["B"], ["B'"])
    assert k.signals(["A"], ["A'"])


def test_signals_identity():
    ident = ClassicalChannel.identity(BITS).with_names(output_names=("A'", "B'"))
    assert not ident.signals(["A"], ["B'"])
    assert ident.signals(["A"], ["A'"])


def test_signals_bad_subset():
    with pytest.raises(SpecError):
        cnot().signals(["Z"], ["B"])
    with pytest.raises(SpecError):
        cnot().signals(["A"], ["Z"])


def test_signals_monotone_under_target_enlargement():
    rng = np.random.default_rng(7)
    sys3 = composite(("A", 2), ("B", 2), ("C", 3))
    for _ in range(30):
        u = random_reversible(sys3, rng)
        for frm in ("A", "B", "C"):
            for small in ("A", "B", "C"):
                if u.signals([frm], [small]):
                    for extra in ("A", "B", "C"):
                        if extra != small:
                            assert u.signals([frm], [small, extra])


def test_no_signalling_to_full_output_impossible():
    rng = np.random.default_rng(11)
    for dims in [(2, 2), (2, 3), (3, 4), (2, 2, 2)]:
        sys_n = composite(*((f"w{k}", d) for k, d in enumerate(dims)))
        for _ in range(10):
            u = random_reversible(sys_n, rng)
            for k in range(len(dims)):
                if dims[k] >= 2:
                    assert u.signals([f"w{k}"], list(u.output.names))


def test_factors_roundtrip():
    rng = np.random.default_rng(3)
    v = random_reversible(composite(("A", 3)), rng)
    u = v.tensor(ClassicalChannel.identity(composite(("B", 2))))
    w = u.factors_as_identity(["B"])
    assert w is not None
    assert w.table.tolist() == v.table.tolist() and w.input.names == ("A",)


def test_factors_cnot_has_no_idle_target():
    # B' = a xor b differs from b at input (1, 0)
    k = cnot()
    assert k.apply_values((1, 0)) == (1, 1)
    assert k.factors_as_identity(["B"]) is None


def test_factors_xor_feedback_not_idle_on_b():
    # outputs on A depend on b: inputs (0,0) and (0,1) give different first bits
    u = xor_feedback()
    assert u.apply_values((0, 0))[0] != u.apply_values((0, 1))[0]
    assert u.factors_as_identity(["B"]) is None


def test_factors_name_dim_mismatch():
    u = cnot(out_names=("A'", "B'"))
    with pytest.raises(SpecError):
        u.factors_as_identity(["B"])  # B is not an output name
    bad = cyclic_shift(2, "A", None).tensor(cyclic_shift(3, "B", None))
    renamed = bad.with_names(output_names=("B", "A"))
    with pytest.raises(SpecError):
        renamed.factors_as_identity(["A"])  # A: input dim 2, output dim 3


def test_factor_reassembles_exactly():
    rng = np.random.default_rng(5)
    for _ in range(20):
        v = random_reversible(composite(("X", 2), ("Y", 3)), rng)
        u = v.tensor(ClassicalChannel.identity(composite(("Z", 2))))
        w = u.factors_as_identity(["Z"])
        assert w is not None
        rebuilt = w.tensor(ClassicalChannel.identity(composite(("Z", 2))))
        assert rebuilt.table.tolist() == u.table.tolist()


def test_factor_reassembles_with_interleaved_idle_wire():
    # idle wire sitting first, not last: reassembly needs a wire reorder
    rng = np.random.default_rng(6)
    for _ in range(10):
        v = random_reversible(composite(("X", 2), ("Y", 2)), rng)
        u0 = ClassicalChannel.identity(composite(("Z", 3))).tensor(v)
        w = u0.factors_as_identity(["Z"])
        assert w is not None and w.table.tolist() == v.table.tolist()
        rebuilt = reorder_wires(
            w.tensor(ClassicalChannel.identity(composite(("Z", 3)))),
            input_order=u0.input.names,
            output_order=u0.output.names,
        )
        assert rebuilt.table.tolist() == u0.table.tolist()


def test_bijection_preserved_under_algebra():
    rng = np.random.default_rng(9)
    for _ in range(20):
        f = random_reversible(BITS, rng)
        g = random_reversible(BITS, rng)
        # constructors re-validate the bijection invariant
        g.compose(f)
        f.tensor(g.with_names(("C", "D"), ("C", "D")))
        f.invert()


def test_instrument_constant_and_atom():
    bit = composite(("A", 2))
    const0 = ClassicalInstrument.constant(bit, bit, 0)
    assert const0.apply(1) == 0
    atom = ClassicalInstrument.atom(bit, bit, measured=1, prepared=0)
    assert atom.apply(1) == 0
    assert atom.apply(0) is None
    ident = ClassicalInstrument.identity(bit)
    assert [ident.apply(x) for x in range(2)] == [0, 1]


def test_instrument_validation():
    bit = composite(("A", 2))
    with pytest.raises(SpecError):
        ClassicalInstrument(bit, bit, (None, None))
    with pytest.raises(SpecError):
        ClassicalInstrument(bit, bit, (0, 5))
    atom = ClassicalInstrument.atom(bit, bit, 0, 1)
    assert atom.pairs == frozenset({(0, 1)})
    assert not atom.is_deterministic


def test_instrument_tuple_and_array_construction_agree():
    # the null event is None in a tuple and -1 in an int64 array
    joint = composite(("E", 2), ("A", 3))
    rng = np.random.default_rng(12)
    for _ in range(20):
        values = rng.integers(-1, joint.total_dim, joint.total_dim)
        values[rng.integers(joint.total_dim)] = rng.integers(joint.total_dim)  # one defined atom
        table = tuple(None if v < 0 else int(v) for v in values)
        from_tuple = ClassicalInstrument(joint, joint, table)
        from_array = ClassicalInstrument(joint, joint, values)
        assert from_tuple.table.tolist() == from_array.table.tolist() == values.tolist()
        # pairs, is_deterministic and apply, as read off the tuple
        want = frozenset((i, v) for i, v in enumerate(table) if v is not None)
        assert from_tuple.pairs == from_array.pairs == want
        assert from_array.is_deterministic == all(v is not None for v in table)
        assert [from_array.apply(x) for x in range(joint.total_dim)] == list(table)


def test_instrument_error_paths_keep_their_messages():
    bit = composite(("A", 2))
    cases = [
        ((0,), "instrument table length must equal input total_dim"),
        (np.array([0, 1, 0]), "instrument table length must equal input total_dim"),
        ((None, None), "instrument must have at least one defined atom"),
        (np.array([-1, -1]), "instrument must have at least one defined atom"),
        ((0, 5), "prepared index 5 out of range"),
        (np.array([-2, 0]), "prepared index -2 out of range"),
    ]
    for table, message in cases:
        with pytest.raises(SpecError, match=f"^{message}$"):
            ClassicalInstrument(bit, bit, table)
    ident, gate = ClassicalInstrument.identity(bit), cnot()
    for ch in (ident, gate):
        for x in (-1, ch.input.total_dim):
            with pytest.raises(SpecError, match=f"^input index {x} out of range$"):
                ch.apply(x)
    assert [gate.apply(x) for x in range(4)] == [0, 1, 3, 2]
    assert gate.apply_values((1, 0)) == (1, 1)
    assert ident.is_deterministic and ident.pairs == {(0, 0), (1, 1)}


def test_all_reversible_channels_count():
    assert sum(1 for _ in all_reversible_channels(BITS)) == 24
