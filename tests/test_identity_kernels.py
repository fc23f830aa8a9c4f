"""The two identity kernels against the kernels they replaced.

``classical._steps_by`` is checked against ``_varies`` and ``_passes_through``,
kept here verbatim as references, on probe stacks and output-digit grids of
mixed-radix channels, and each of its columns against its single-axis call.
``quantum._identity_factor`` is checked against the pattern ``1 ⊗ W`` formed
in full on channel grids, every idle set in a random order, and its factor
against the bound of ``quantum._factor_atol``'s proof on near-factor grids.
The digit table of the classical joint test is checked against the reshape
arithmetic it replaced.
"""

import itertools

import numpy as np
import pytest

from causal_lens import classical, quantum
from causal_lens.classical import _at_zero, _steps_by
from causal_lens.systems import composite

from test_quantum_kernels import reference_residual
from wiring import embed_on, reorder_wires

DIMS = [(2,), (3,), (2, 3), (3, 1, 2), (1, 2, 2), (2, 1, 3, 2), (2, 2, 2), (3, 2, 1, 2)]


def _varies(grid: np.ndarray, axes) -> np.ndarray:
    """For each row ``grid[t]``, whether it changes along any of its ``axes``."""
    moved = grid != _at_zero(grid, [a + 1 for a in axes])
    return moved.any(axis=tuple(range(1, grid.ndim)))


def _passes_through(grid: np.ndarray, axes, strides) -> np.ndarray:
    """For each row ``grid[p]`` of joint output indices, whether it is its value
    with ``axes`` at digit 0 plus each axis' digit times its output ``strides``.

    The grid-level identity-factor test. For a bijection it holds exactly when
    each axis' digit passes through to the output wire of that stride (of the
    same dim) and no other output digit depends on it: each line along an axis
    then maps onto ``dim`` consecutive values of ``index // stride``, and runs
    of that length tile the index space only when each starts at digit 0.
    """
    offset = 0  # spans the named axes only, until it is added to the full grid
    for a, stride in zip(axes, strides):
        dim = grid.shape[a + 1]
        digit = np.arange(dim).reshape([dim if b == a + 1 else 1 for b in range(grid.ndim)])
        offset = offset + digit * stride
    base = _at_zero(grid, [a + 1 for a in axes]) + offset
    return (grid == base).reshape(len(grid), -1).all(axis=1)


def subsets(n):
    return [s for r in range(n + 1) for s in itertools.combinations(range(n), r)]


def channels(make, seed):
    """Per dims: the identity, a local gate, random channels, and one with its
    outputs relisted in a random order."""
    rng = np.random.default_rng(seed)
    for dims in DIMS:
        system = composite(*zip("ABCD", dims))
        yield make(classical.ClassicalChannel.identity(system))
        if len(dims) > 1:
            gate = classical.random_reversible(system.restrict(system.names[:2]), rng)
            yield make(embed_on(gate, system))
        for _ in range(2):
            u = classical.random_reversible(system, rng)
            yield make(u)
            yield make(reorder_wires(u, output_order=list(rng.permutation(system.names))))


def probe_stacks(u):
    """Stacks of 1-3 classical probes: equal-dim input wires share one."""
    by_dim = {}
    for k, dim in enumerate(u.input.dims):
        by_dim.setdefault(dim, []).append((k,))
    return [u._probes(blocks) for blocks in by_dim.values()]


def test_the_fixture_dims_give_stacks_of_one_to_three():
    sizes = {len(g) for u in channels(lambda u: u, 0) for g in probe_stacks(u)}
    assert sizes == {1, 2, 3}


@pytest.mark.parametrize("seed", range(4))
def test_the_difference_kernel_equals_the_pass_through_kernel(seed):
    cases, passed = 0, set()
    for u in channels(lambda u: u, seed):
        strides = u.output.strides
        grids = [(g, 1) for g in probe_stacks(u)]  # axis 0 of a row is the probe copy
        grids.append((u.table.reshape((1,) + u.input.dims), 0))
        for grid, first in grids:
            n = grid.ndim - 1 - first
            for idle in subsets(n):
                axes = [first + k for k in idle]
                # the output wires' own strides, and strides of other wires' dims
                for steps in ([strides[k] for k in idle], [strides[-1 - k] for k in idle]):
                    got = _steps_by(grid, axes, steps).all(axis=1)
                    assert got.tolist() == _passes_through(grid, axes, steps).tolist()
                    passed.update(got.tolist())
                    cases += len(grid)
    assert cases > 1000 and passed == {False, True}


@pytest.mark.parametrize("seed", range(4))
def test_each_column_of_the_difference_kernel_is_its_single_axis_call(seed):
    cases, read, dim_1 = 0, set(), 0
    for u in channels(lambda u: u, seed):
        strides = list(u.output.strides)
        grids = [(g, 1) for g in probe_stacks(u)]  # axis 0 of a row is the probe copy
        grids.append((u.output.digit_rows(u.table).reshape((len(u.output),) + u.input.dims), 0))
        for grid, first in grids:
            axes = list(range(first, grid.ndim - 1))
            for steps in ([0] * len(axes), strides[: len(axes)], strides[::-1][: len(axes)]):
                got = _steps_by(grid, axes, steps)
                assert got.shape == (len(grid), len(axes))
                for j, (a, step) in enumerate(zip(axes, steps)):
                    assert got[:, j].tolist() == _steps_by(grid, [a], [step])[:, 0].tolist()
                    dim_1 += grid.shape[a + 1] == 1
                read.update(got.reshape(-1).tolist())
                cases += got.size
    assert cases > 1000 and dim_1 > 0 and read == {False, True}


@pytest.mark.parametrize("seed", range(4))
def test_the_difference_kernel_at_step_0_is_no_variation(seed):
    cases, varied = 0, set()
    for u in channels(lambda u: u, seed):
        # g[t, x_0, ..., x_(n-1)], as wire_signalling builds it: a stack of 1-4
        grid = np.array([u.output.digits(u.table, (t,)) for t in u.output.names])
        grid = grid.reshape((len(u.output),) + u.input.dims)
        for axes in subsets(len(u.input)):
            got = ~_steps_by(grid, axes, [0] * len(axes)).all(axis=1)
            assert got.tolist() == _varies(grid, axes).tolist()
            varied.update(got.tolist())
            cases += len(grid)
        for frm in subsets(len(u.input)):
            for to in subsets(len(u.output)):
                want = _varies(
                    u.output.digits(u.table, [u.output.names[k] for k in to]).reshape(
                        (1,) + u.input.dims
                    ),
                    frm,
                )[0]
                got = u.signals([u.input.names[k] for k in frm], [u.output.names[k] for k in to])
                assert got == want
    assert cases > 500 and varied == {False, True}


def test_the_digit_table_is_the_reshape_arithmetic():
    for dims in DIMS + [(), (1,), (4, 3)]:
        system = composite(*zip("ABCD", dims))
        zd = np.empty((len(system), system.total_dim))
        for k, (dim, stride) in enumerate(zip(system.dims, system.strides)):
            zd[k].reshape(-1, dim, stride)[...] = (np.arange(dim) * stride)[:, None]
        got = classical._digit_table(system)
        assert got.dtype == zd.dtype and np.array_equal(got, zd)


# -- the quantum factor kernel on channel grids ------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_the_factor_kernel_matches_the_formed_pattern_on_channels(seed):
    rng = np.random.default_rng([18, seed])
    for u in channels(quantum.from_classical, seed):
        system = u.output
        # a random unitary on the first wire, tensor the permutation
        first = composite((system.names[0], system.dims[0]))
        local = embed_on(quantum.random_unitary(first, rng), system)
        for w in (u, local.compose(u), quantum.random_unitary(u.input, rng, u.output)):
            for idle in subsets(len(system)):
                names = [system.names[k] for k in rng.permutation(idle)]
                grid, pairs = quantum._paired_grid(w, tuple(names))
                delta, eps, factor = quantum._identity_factor(grid, pairs, w.atol)
                want_r2, want_w = reference_residual(grid[None], [(a + 1, b + 1) for a, b in pairs])
                assert np.allclose(eps * eps, want_r2[0], rtol=1e-12, atol=1e-15)
                factor_grid = factor.reshape(want_w[0].shape)
                assert np.allclose(factor_grid, want_w[0], rtol=1e-12, atol=1e-15)
                assert np.isclose(delta, np.sqrt(want_r2[0] / np.sqrt(grid.size)), atol=1e-15)
                d_rest = w.output.total_dim // w.output.select(names).total_dim
                assert factor.shape == (d_rest, d_rest)


# the rounding of W+W − 1 on grids of dim at most 9, far below every bound it is added to
FACTOR_ROUNDING = 1e-13


@pytest.mark.parametrize("d_a,d_idle", itertools.product((2, 3), repeat=2))
def test_a_near_factor_is_unitary_within_atol_plus_eps_squared_over_d(d_a, d_idle):
    # U = (V ⊗ 1)·exp(i·s·H) on (A, I): s from 1e-6 to 3 moves U from a factor
    # to a random unitary, eps from ~1e-5 to ~sqrt(dim U)
    rng = np.random.default_rng([32, d_a, d_idle])
    system = composite(("A", d_a), ("I", d_idle))
    n, epsilons = system.total_dim, []
    for s in np.geomspace(1e-6, 3.0, 100):
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        lam, vec = np.linalg.eigh(h + h.conj().T)
        local = quantum.random_unitary(composite(("A", d_a)), rng).matrix
        matrix = np.kron(local, np.eye(d_idle)) @ (vec * np.exp(1j * s * lam)) @ vec.conj().T
        u = quantum.UnitaryChannel(system, system, matrix)
        atol = float(quantum._unitarity_defects(u.matrix))
        grid, pairs = quantum._paired_grid(u, ("I",))
        _, eps, w = quantum._identity_factor(grid, pairs, np.inf)
        defect = quantum._unitarity_defects(w)
        assert defect <= atol + eps**2 / d_idle + FACTOR_ROUNDING
        assert defect <= atol + 2 * eps + FACTOR_ROUNDING  # the bound without eps²
        epsilons.append(eps)
    assert min(epsilons) < 1e-4 and max(epsilons) > 1.5
