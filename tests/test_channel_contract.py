"""What the channel constructors of both models store, and how channels are renamed
and compared.

A classical channel or instrument keeps its table, and a unitary channel its
matrix, as one read-only, C-contiguous array of the model's dtype: int64 (-1
the null event), or float64 when no entry has a nonzero imaginary part and
complex128 otherwise. The constructor copies whatever it is given, so a
caller's array stays the caller's and stays writeable. A table must be 1-D.
Renaming takes one
name per wire, and channels compare and hash by identity.
"""

import re

import numpy as np
import pytest

from causal_lens import classical, quantum
from causal_lens.classical import ClassicalChannel, ClassicalInstrument
from causal_lens.errors import SpecError
from causal_lens.quantum import UnitaryChannel
from causal_lens.systems import composite

BITS = composite(("A", 2), ("B", 2))

# model: (class, stored dtype, a value the constructor accepts on BITS -> BITS)
HH = quantum.hadamard().tensor(quantum.hadamard("B")).matrix
RANDOM = quantum.random_unitary(BITS, np.random.default_rng(0)).matrix
MODELS = {
    "classical": (ClassicalChannel, np.int64, np.array([0, 1, 3, 2])),
    "instrument": (ClassicalInstrument, np.int64, np.array([0, -1, 3, 2])),
    "real unitary": (UnitaryChannel, np.float64, HH),
    "complex unitary": (UnitaryChannel, np.complex128, RANDOM),
}
CHANNELS = [m for m, (cls, _, _) in MODELS.items() if cls is not ClassicalInstrument]


def as_tuple(value):
    if value.ndim == 1:
        return tuple(None if v < 0 else v for v in value.tolist())  # None, the null event
    return tuple(map(tuple, value.tolist()))


# each form of the value a caller may pass, built afresh
FORMS = {
    "tuple": as_tuple,
    "list": lambda v: v.tolist(),
    "C array": lambda v: np.array(v, order="C"),
    "F array": lambda v: np.array(v, order="F"),
    "strided view": lambda v: np.stack([v, v], axis=-1)[..., 0],
}


def stored(channel) -> np.ndarray:
    return channel.matrix if isinstance(channel, UnitaryChannel) else channel.table


def assert_kept(arr: np.ndarray, dtype) -> None:
    assert arr.dtype == dtype and arr.flags.c_contiguous and not arr.flags.writeable


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("model", MODELS)
def test_the_constructor_keeps_a_read_only_c_contiguous_copy(model, form):
    cls, dtype, value = MODELS[model]
    given = FORMS[form](value)
    channel = cls(BITS, BITS, given)
    assert_kept(stored(channel), dtype)
    assert np.array_equal(stored(channel), value)
    if isinstance(given, np.ndarray):
        assert given.flags.writeable and not np.shares_memory(stored(channel), given)
        given[...] = 0  # the caller's array is the caller's
        assert np.array_equal(stored(channel), value)


@pytest.mark.parametrize("op", ["compose", "tensor", "invert", "with_names"])
@pytest.mark.parametrize("model", CHANNELS)
def test_the_algebra_keeps_a_read_only_c_contiguous_copy(model, op):
    cls, dtype, value = MODELS[model]
    u = cls(BITS, BITS, value)
    result = {
        "compose": lambda: u.compose(u),
        "tensor": lambda: u.tensor(cls.identity(composite(("C", 3)))),
        "invert": u.invert,
        "with_names": lambda: u.with_names(["X", "Y"], ["X'", "Y'"]),
    }[op]()
    assert_kept(stored(result), dtype)
    assert not np.shares_memory(stored(result), stored(u))


@pytest.mark.parametrize("names", [["X"], ["X", "Y", "Z"]], ids=["too few", "too many"])
@pytest.mark.parametrize("side", ["input", "output"])
@pytest.mark.parametrize("gate", [classical.cnot, quantum.cnot], ids=["classical", "quantum"])
def test_with_names_takes_one_name_per_wire(gate, side, names):
    with pytest.raises(SpecError, match=rf"^{side} has 2 wires, got {len(names)} names$"):
        gate().with_names(**{f"{side}_names": names})
    renamed = gate().with_names(**{f"{side}_names": ["X", "Y"]})
    assert getattr(renamed, side).names == ("X", "Y")
    other = "output" if side == "input" else "input"
    assert getattr(renamed, other).names == ("A", "B")
    assert np.array_equal(stored(renamed), stored(gate()))


@pytest.mark.parametrize("model", MODELS)
def test_channels_compare_and_hash_by_identity(model):
    cls, _, value = MODELS[model]
    u, v = cls(BITS, BITS, value), cls(BITS, BITS, value)
    assert u == u and u != v and hash(u) != hash(v)
    assert len({u, v, u}) == 2


@pytest.mark.parametrize(
    "table",
    [[[0], [0], [0], [0]], [[0, 1]] * 4, [[0], [1], [2], [3]], 0],
    ids=["repeated column", "rows", "column", "scalar"],
)
@pytest.mark.parametrize("cls", [ClassicalChannel, ClassicalInstrument])
def test_a_table_that_is_not_1d_is_refused(cls, table):
    shape = np.shape(table)
    with pytest.raises(SpecError, match=rf"^table must be 1-D, got shape {re.escape(str(shape))}$"):
        cls(BITS, BITS, table)
