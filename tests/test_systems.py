import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causal_lens.errors import SpecError
from causal_lens.systems import CompositeSystem, SubsystemLabel, composite


def test_flatten_examples():
    assert composite(("A", 2), ("B", 2)).flatten((1, 0)) == 2
    assert composite(("A", 2), ("B", 3)).flatten((1, 2)) == 5  # 1*3+2
    assert composite().flatten(()) == 0


def test_flatten_out_of_range_reports_position():
    sys2 = composite(("A", 2), ("B", 3))
    with pytest.raises(IndexError, match="component 1"):
        sys2.flatten((0, 3))
    with pytest.raises(IndexError, match="A"):
        sys2.flatten((2, 0))


def test_unique_names_enforced():
    with pytest.raises(SpecError):
        composite(("A", 2), ("A", 3))
    with pytest.raises(SpecError):
        SubsystemLabel("A", 0)


def test_trivial_system():
    triv = composite()
    assert triv.total_dim == 1
    assert triv.unflatten(0) == ()
    assert composite(("I", 1)).total_dim == 1


def reordered(system, order):
    """Each joint index of ``system`` read with its wires in ``order``."""
    return system.digits(np.arange(system.total_dim), order).tolist()


def test_reorder_swap_of_two_bits():
    sys2 = composite(("A", 2), ("B", 2))
    assert reordered(sys2, ("B", "A")) == [0, 2, 1, 3]
    assert reordered(sys2, ("A", "B")) == [0, 1, 2, 3]


def test_reorder_mixed_dims_enumerated():
    # (a, b) at index a*3+b maps to b*2+a, checked on all 6 joint indices
    sys23 = composite(("A", 2), ("B", 3))
    perm = reordered(sys23, ("B", "A"))
    for a in range(2):
        for b in range(3):
            assert perm[a * 3 + b] == b * 2 + a


def test_reorder_errors():
    sys2 = composite(("A", 2), ("B", 2))
    with pytest.raises(SpecError, match="unknown wire name 'C'"):
        sys2.digits(np.arange(4), ("A", "C"))
    with pytest.raises(SpecError, match="duplicate names in subset"):
        sys2.digits(np.arange(4), ("A", "A"))


@st.composite
def small_systems(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    dims = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=n, max_size=n))
    return composite(*((f"w{k}", d) for k, d in enumerate(dims)))


@settings(max_examples=60)
@given(small_systems(), st.data())
def test_flatten_unflatten_roundtrip(system, data):
    for idx in range(system.total_dim):
        assert system.flatten(system.unflatten(idx)) == idx
    values = tuple(data.draw(st.integers(0, d - 1)) for d in system.dims)
    assert system.unflatten(system.flatten(values)) == values


@settings(max_examples=40)
@given(small_systems(), st.randoms(use_true_random=False))
def test_reorder_then_inverse_is_identity(system, rnd):
    order = list(system.names)
    rnd.shuffle(order)
    forward = reordered(system, order)
    # inverse order: where each wire of the reordered system came from
    back = reordered(system.select(order), system.names)
    n = system.total_dim
    assert [back[forward[x]] for x in range(n)] == list(range(n))


def test_swap_twice_is_identity():
    sys2 = composite(("A", 2), ("B", 3))
    ab = reordered(sys2, ("B", "A"))
    ba = reordered(sys2.select(("B", "A")), ("A", "B"))
    assert [ba[ab[x]] for x in range(6)] == list(range(6))


def test_strides_and_positions():
    sys3 = composite(("A", 2), ("B", 3), ("C", 4))
    assert sys3.strides == (12, 4, 1)
    assert sys3.position("B") == 1
    assert sys3.subset_positions(("C", "A")) == (0, 2)
    assert sys3.complement(("B",)) == ("A", "C")
    assert sys3.restrict(("C", "B")).names == ("B", "C")
    assert sys3.select(("C", "B")).names == ("C", "B")
    with pytest.raises(SpecError):
        sys3.subset_positions(("A", "A"))
    with pytest.raises(SpecError):
        sys3.position("Z")


# -- the array codec against the scalar one -----------------------------------------


@st.composite
def systems_and_names(draw):
    """A system of 0-6 wires of dims 1-5 (at most 4096 states) and a subset in any order."""
    n = draw(st.integers(min_value=0, max_value=6))
    dims = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=n, max_size=n))
    while math.prod(dims) > 4096:
        dims[dims.index(max(dims))] -= 1
    system = composite(*((f"w{k}", d) for k, d in enumerate(dims)))
    names = draw(st.permutations(system.names))
    size = draw(st.integers(min_value=0, max_value=n))
    return system, list(names[:size])


@settings(max_examples=80, deadline=None)
@given(systems_and_names(), st.data())
def test_digits_matches_unflatten_then_flatten(case, data):
    system, names = case
    sub = system.select(names)
    idx = np.arange(system.total_dim)
    got = system.digits(idx, names)
    assert got.shape == idx.shape
    for x in data.draw(st.lists(st.integers(0, system.total_dim - 1), max_size=20)):
        values = system.unflatten(x)
        assert got[x] == sub.flatten([values[system.position(n)] for n in names])
        assert system.digits(x, names) == got[x]


@settings(max_examples=80, deadline=None)
@given(systems_and_names(), st.data())
def test_with_digits_matches_scalar_rewrite(case, data):
    system, names = case
    sub = system.select(names)
    idx = np.arange(system.total_dim)
    v = data.draw(st.integers(0, sub.total_dim - 1))
    got = system.with_digits(idx, names, v)
    for x in data.draw(st.lists(st.integers(0, system.total_dim - 1), max_size=20)):
        values = list(system.unflatten(x))
        for n, d in zip(names, sub.unflatten(v)):
            values[system.position(n)] = d
        assert got[x] == system.flatten(values)
    # broadcasting: a column of sub-indices against a row of joint indices
    table = system.with_digits(idx, names, np.arange(sub.total_dim)[:, None])
    assert table.shape == (sub.total_dim, system.total_dim)
    column = np.arange(sub.total_dim)[:, None]
    assert np.array_equal(system.digits(table, names), np.broadcast_to(column, table.shape))
    # every wire named: the inverse of reading the wires in that order
    if len(names) == len(system):
        assert np.array_equal(system.with_digits(0, names, system.digits(idx, names)), idx)


@settings(max_examples=80, deadline=None)
@given(systems_and_names(), st.data())
def test_digit_rows_match_unflatten(case, data):
    system, _ = case
    shape = data.draw(st.lists(st.integers(0, 3), max_size=3))
    idx = np.asarray(
        data.draw(
            st.lists(
                st.integers(0, system.total_dim - 1),
                min_size=math.prod(shape),
                max_size=math.prod(shape),
            )
        ),
        dtype=np.int64,
    ).reshape(shape)
    got = system.digit_rows(idx)
    assert got.shape == (len(system),) + idx.shape and got.dtype == np.int64
    for pos in np.ndindex(*idx.shape):
        assert tuple(got[(slice(None),) + pos].tolist()) == system.unflatten(int(idx[pos]))
    # a scalar index and the whole index range
    x = data.draw(st.integers(0, system.total_dim - 1))
    assert tuple(system.digit_rows(x).tolist()) == system.unflatten(x)
    rows = system.digit_rows(np.arange(system.total_dim))
    assert [tuple(col) for col in rows.T.tolist()] == [
        system.unflatten(z) for z in range(system.total_dim)
    ]


def test_digit_rows_cover_mixed_radix_dim_1_and_empty_systems():
    mixed = composite(("A", 2), ("B", 1), ("C", 3))
    assert mixed.digit_rows(np.arange(6)).tolist() == [
        [0, 0, 0, 1, 1, 1],
        [0, 0, 0, 0, 0, 0],
        [0, 1, 2, 0, 1, 2],
    ]
    triv = composite()
    assert triv.digit_rows(np.arange(1)).shape == (0, 1)
    assert triv.digit_rows(np.zeros((2, 3), dtype=int)).shape == (0, 2, 3)
    assert triv.digit_rows(0).dtype == np.int64


def test_codec_on_the_empty_system():
    triv = composite()
    assert triv.digits(np.arange(1), []).tolist() == [0]
    assert triv.with_digits(0, [], np.arange(1)).tolist() == [0]
    sys2 = composite(("A", 2), ("B", 3))
    assert np.array_equal(sys2.digits(np.arange(6), []), np.zeros(6))
    assert np.array_equal(sys2.with_digits(np.arange(6), [], 0), np.arange(6))


def test_restrict_and_complement_reject_duplicate_names():
    sys3 = composite(("A", 2), ("B", 3), ("C", 2))
    for method in (sys3.restrict, sys3.complement):
        with pytest.raises(SpecError, match="duplicate names"):
            method(["B", "A", "B"])
    assert sys3.restrict(["C", "A"]).names == ("A", "C")
    assert sys3.complement(["C", "A"]) == ("B",)


def test_codec_rejects_unknown_and_duplicate_names():
    sys2 = composite(("A", 2), ("B", 3))
    with pytest.raises(SpecError):
        sys2.digits(np.arange(6), ["C"])
    with pytest.raises(SpecError):
        sys2.with_digits(np.arange(6), ["A", "A"], 0)


def test_views_are_computed_once_and_layout_builds_no_subsystem(monkeypatch):
    sys3 = composite(("A", 2), ("B", 3), ("C", 4))
    assert sys3.names is sys3.names and sys3.dims is sys3.dims and sys3.strides is sys3.strides
    built = []
    real = CompositeSystem.__post_init__
    monkeypatch.setattr(
        CompositeSystem, "__post_init__", lambda self: built.append(self) or real(self)
    )
    assert sys3.layout(("C", "A")) == ((2, 0), (4, 2))
    assert sys3.layout(()) == ((), ())
    idx = np.arange(24)
    assert np.array_equal(sys3.with_digits(idx, ["C", "A"], sys3.digits(idx, ["C", "A"])), idx)
    assert built == []
    for bad in (["Z"], ["A", "A"]):
        with pytest.raises(SpecError):
            sys3.layout(bad)
