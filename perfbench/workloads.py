"""Seeded inputs and the fixed op list of each workload.

Each op is one CLI command (argv for ``causal_lens.cli.main``) plus a check of
its parsed JSON output against ``reference``. Inputs are written from the
benchmark's own generators (numpy permutations for tables, QR of a complex
Gaussian for unitaries), so a change in the library cannot change them.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import reference as ref
from reference import Channel

WORKLOADS = ("ring-classical", "ring-quantum", "channel-mix")
SHAPE_SEED = 20201230

Check = Callable[[dict], list]


@dataclass
class Op:
    argv: list[str]
    check: Check
    known_fault: bool = False  # fails today because of the oracle fault on 3-wire channels

    @property
    def command(self) -> str:
        return self.argv[0]


def _lazy(compute: Callable[[], object], check: Callable[[dict, object], list]) -> Check:
    """A check whose reference is computed on first use and then kept."""
    cache: list = []

    def run(payload: dict) -> list:
        if not cache:
            cache.append(compute())
        return check(payload, cache[0])

    return run


# -- generators ------------------------------------------------------------------


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def placed_table(dims, gates) -> np.ndarray:
    """Table of disjoint gates ``[(table, positions)]`` on a mixed-radix register."""
    dims = tuple(dims)
    d = np.array(np.unravel_index(np.arange(math.prod(dims)), dims))
    for table, pos in gates:
        sub = tuple(dims[p] for p in pos)
        local = np.ravel_multi_index(tuple(d[list(pos)]), sub)
        d[list(pos)] = np.array(np.unravel_index(np.asarray(table)[local], sub))
    return np.ravel_multi_index(tuple(d), dims)


def controlled_table(dims, control, target, rng) -> np.ndarray:
    """Control wires pass through; the target block gets a permutation per control value."""
    dims = tuple(dims)
    d = np.array(np.unravel_index(np.arange(math.prod(dims)), dims))
    cdims = tuple(dims[p] for p in control)
    tdims = tuple(dims[p] for p in target)
    perms = np.array([rng.permutation(math.prod(tdims)) for _ in range(math.prod(cdims))])
    c = np.ravel_multi_index(tuple(d[list(control)]), cdims)
    t = np.ravel_multi_index(tuple(d[list(target)]), tdims)
    d[list(target)] = np.array(np.unravel_index(perms[c, t], tdims))
    return np.ravel_multi_index(tuple(d), dims)


def placed_unitary(dims, gates) -> np.ndarray:
    u = np.eye(math.prod(dims), dtype=complex)
    for mat, pos in gates:
        u = ref.embed(np.asarray(mat, dtype=complex), dims, list(pos)) @ u
    return u


def _perm_matrix(table) -> np.ndarray:
    n = len(table)
    m = np.zeros((n, n))
    m[np.asarray(table), np.arange(n)] = 1.0
    return m


# -- files -------------------------------------------------------------------------


class Writer:
    """Writes input files into one work directory and hands back their paths."""

    def __init__(self, root: Path):
        self.root = root
        self.root.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def _path(self, stem: str) -> str:
        self.count += 1
        return str(self.root / f"{self.count:03d}_{stem}.json")

    def channel(self, ch: Channel, stem: str = "channel") -> str:
        data = {
            "model": ch.model,
            "inputs": [{"name": n, "dim": d} for n, d in zip(ch.names_in, ch.dims)],
            "outputs": [{"name": n, "dim": d} for n, d in zip(ch.names_out, ch.dims)],
            "data": [int(v) for v in ch.table]
            if ch.model == "classical"
            else [[[float(v.real), float(v.imag)] for v in row] for row in ch.matrix],
        }
        path = self._path(stem)
        Path(path).write_text(json.dumps(data))
        return path

    def rule(self, cell_dim: int, layers) -> str:
        """``layers`` is [[(gate, at)]] with a builtin name or a gate-file path."""
        path = self._path("rule")
        entries = [
            [{"gate": g if g in BUILTIN_ARITY else Path(g).name, "at": at} for g, at in layer]
            for layer in layers
        ]
        Path(path).write_text(json.dumps({"cell_dim": cell_dim, "layers": entries}))
        return path


def classical_channel(dims, table, primed: bool = False) -> Channel:
    names = tuple(f"w{k}" for k in range(len(dims)))
    outs = tuple(n + "'" for n in names) if primed else names
    return Channel("classical", names, outs, tuple(dims), table=np.asarray(table, dtype=np.int64))


def quantum_channel(dims, matrix, primed: bool = False) -> Channel:
    names = tuple(f"q{k}" for k in range(len(dims)))
    outs = tuple(n + "'" for n in names) if primed else names
    return Channel("quantum", names, outs, tuple(dims), matrix=np.asarray(matrix, dtype=complex))


# -- rings ---------------------------------------------------------------------------

BUILTIN_ARITY = {"cnot": 2, "swap": 2, "identity": 1, "hadamard": 1}
FIXTURE_RULES = ("staggered_cnot_ring", "swap_chain_ring", "single_cnot_layer_ring")
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _builtin_table(name: str, d: int) -> np.ndarray:
    if name == "cnot":
        return np.array([a * d + (a + b) % d for a in range(d) for b in range(d)])
    if name == "swap":
        return np.array([b * d + a for a in range(d) for b in range(d)])
    return np.arange(d)


class Ring:
    """One ring rule: its file, and its gates as (table or matrix, arity, at)."""

    def __init__(self, path: str, cell_dim: int, layers):
        self.path = path
        self.cell_dim = cell_dim
        self.layers = layers  # [[(table or matrix, arity, at)]]
        self.permutation = not any(np.ndim(g) == 2 for layer in layers for g, _, _ in layer)

    def op(self, cells: int, steps: int, model: str) -> Op:
        argv = ["ca", self.path, "--cells", str(cells), "--steps", str(steps), "--format", "json"]
        if model == "quantum":
            argv += ["--model", "quantum"]

        def compute():
            tables = self.layers
            if model == "classical":
                step = ref.ring_step_table(cells, self.cell_dim, tables)
                return ref.ring_reference(cells, self.cell_dim, step, steps, "classical"), None
            mats = [
                [(g if np.ndim(g) == 2 else _perm_matrix(g), a, at) for g, a, at in layer]
                for layer in tables
            ]
            step = ref.ring_step_unitary(cells, self.cell_dim, mats)
            classical_rows = None
            if self.permutation:
                table = ref.ring_step_table(cells, self.cell_dim, tables)
                classical_rows = ref.ring_reference(cells, self.cell_dim, table, steps, "classical")
            return ref.ring_reference(cells, self.cell_dim, step, steps, "quantum"), classical_rows

        return Op(argv, _lazy(compute, lambda p, r: ref.check_ca(p, r[0], r[1])))


def fixture_ring(name: str, fixtures: Path) -> Ring:
    data = json.loads((fixtures / f"{name}.json").read_text())
    d = int(data["cell_dim"])
    layers = [
        [(_builtin_table(e["gate"], d), BUILTIN_ARITY[e["gate"]], int(e["at"])) for e in layer]
        for layer in data["layers"]
    ]
    return Ring(str(fixtures / f"{name}.json"), d, layers)


def generated_ring(w: Writer, shape, rng, cells: int, cell_dim: int, quantum: bool) -> Ring:
    """Layers of builtins and permutation gate files; ``shape`` lays them out, ``rng``
    picks the permutations."""
    layers_out, layers_ref = [], []
    for _ in range(int(shape.integers(1, 4))):
        free = [True] * cells
        layer_out, layer_ref = [], []
        use_hadamard = quantum and shape.random() < 0.5
        start = int(shape.integers(0, cells))
        for off in range(cells):
            at = (start + off) % cells
            if use_hadamard:
                kind = "hadamard" if shape.random() < 0.7 else "identity"
            else:
                kind = ("cnot", "swap", "file2", "file3", "identity")[int(shape.integers(0, 5))]
            arity = 3 if kind == "file3" else BUILTIN_ARITY.get(kind, 2)
            span = [(at + k) % cells for k in range(arity)]
            if arity > cells or not all(free[s] for s in span) or shape.random() < 0.15:
                continue
            for s in span:
                free[s] = False
            if kind in BUILTIN_ARITY:
                layer_out.append((kind, at))
                gate = HADAMARD if kind == "hadamard" else _builtin_table(kind, cell_dim)
            else:
                gate = rng.permutation(cell_dim**arity)
                path = w.channel(
                    classical_channel((cell_dim,) * arity, gate), stem=f"gate{arity}"
                )
                layer_out.append((path, at))
            layer_ref.append((gate, arity, at))
        layers_out.append(layer_out)
        layers_ref.append(layer_ref)
    return Ring(w.rule(cell_dim, layers_out), cell_dim, layers_ref)


def _steps(shape) -> int:
    """1, 2 or 3 steps; ``ca`` recomputes every step up to the last, so 3 is rarer."""
    return int(shape.choice([1, 2, 3], p=[0.8, 0.15, 0.05]))


def ring_classical(w: Writer, shape, rng, fixtures: Path) -> list[Op]:
    fx = {name: fixture_ring(name, fixtures) for name in FIXTURE_RULES}
    ops = [fx["staggered_cnot_ring"].op(12, 1, "classical"), fx["swap_chain_ring"].op(10, 1, "classical")]
    ops += [fx["single_cnot_layer_ring"].op(8, 1, "classical")]
    ops += [fx[name].op(6, steps, "classical") for name in FIXTURE_RULES for steps in (1, 2, 3)]
    for k in range(88):
        cells = 7 if k in (11, 55) else 6
        cell_dim = 3 if k % 44 == 5 else 2
        ring = generated_ring(w, shape, rng, cells, cell_dim, quantum=False)
        ops.append(ring.op(cells, _steps(shape), "classical"))
    return ops


def ring_quantum(w: Writer, shape, rng, fixtures: Path) -> list[Op]:
    fx = {name: fixture_ring(name, fixtures) for name in FIXTURE_RULES}
    ops = [fx["staggered_cnot_ring"].op(6, 1, "quantum")]
    ops += [
        fx[name].op(cells, steps, "quantum")
        for name in ("swap_chain_ring", "single_cnot_layer_ring")
        for cells, steps in ((4, 1), (4, 3), (5, 2))
    ]
    for k in range(96):
        cells = 6 if k == 7 else 5 if k % 8 == 3 else (2, 3, 4, 4)[k % 4]
        ring = generated_ring(w, shape, rng, cells, 2, quantum=True)
        ops.append(ring.op(cells, 1 if cells == 6 else _steps(shape), "quantum"))
    return ops


# -- channel-mix -----------------------------------------------------------------------


def _analyze(w: Writer, ch: Channel, path: Optional[str] = None) -> Op:
    path = path or w.channel(ch)
    return Op(["analyze", path, "--format", "json"], lambda p: ref.check_analyze(p, ch))


def _hierarchy(w: Writer, ch: Channel, frm, to, path: Optional[str] = None) -> Op:
    path = path or w.channel(ch)
    argv = [
        "hierarchy", path,
        "--from", ",".join(ch.names_in[p] for p in frm),
        "--to", ",".join(ch.names_out[p] for p in to),
        "--format", "json",
    ]
    return Op(argv, lambda p: ref.check_hierarchy(p, ch, frm, to))


def _niwd(w: Writer, ch: Channel, acting, path: Optional[str] = None) -> Op:
    path = path or w.channel(ch)
    argv = ["niwd", path, "--from", ",".join(ch.names_in[p] for p in acting), "--format", "json"]
    return Op(argv, lambda p: ref.check_niwd(p, ch, acting))


def _oracle(w: Writer, ch: Channel, env_dim: int, cls: str, full: bool, known_fault=False, path=None) -> Op:
    path = path or w.channel(ch, stem="oracle")
    argv = ["oracle", path, "--env-dim", str(env_dim), "--class", cls, "--format", "json"]
    return Op(argv, lambda p: ref.check_oracle(p, ch, full), known_fault=known_fault)


def _fixture_channel(fixtures: Path, name: str) -> tuple[str, Channel]:
    data = json.loads((fixtures / f"{name}.json").read_text())
    names_in = tuple(e["name"] for e in data["inputs"])
    names_out = tuple(e["name"] for e in data["outputs"])
    dims = tuple(int(e["dim"]) for e in data["inputs"])
    if data["model"] == "classical":
        ch = Channel("classical", names_in, names_out, dims, table=np.array(data["data"]))
    else:
        m = np.array([[complex(re, im) for re, im in row] for row in data["data"]])
        ch = Channel("quantum", names_in, names_out, dims, matrix=m)
    return str(fixtures / f"{name}.json"), ch


def _split(n_wires: int, shape) -> tuple[list[int], list[int]]:
    order = [int(v) for v in shape.permutation(n_wires)]
    cut = int(shape.integers(1, n_wires))
    return sorted(order[:cut]), sorted(order[cut:])


def _mixed_dims(shape, lo: int, hi: int) -> tuple[int, ...]:
    """Mixed-radix wire dims (2..5) with a joint dimension in [lo, hi]."""
    while True:
        dims = [int(shape.integers(2, 6)) for _ in range(int(shape.integers(2, 7)))]
        if lo <= math.prod(dims) <= hi:
            return tuple(dims)


def channel_mix(w: Writer, shape, rng, fixtures: Path) -> list[Op]:
    ops = []
    fx = {n: _fixture_channel(fixtures, n) for n in ("cnot", "cnot_quantum", "identity", "swap", "xorback")}
    for name in fx:
        ops.append(_analyze(w, fx[name][1], fx[name][0]))
    ops.append(_hierarchy(w, fx["cnot"][1], [1], [0], fx["cnot"][0]))
    ops.append(_hierarchy(w, fx["cnot_quantum"][1], [1], [0], fx["cnot_quantum"][0]))
    ops.append(_niwd(w, fx["xorback"][1], [0], fx["xorback"][0]))
    ops.append(_niwd(w, fx["xorback"][1], [1], fx["xorback"][0]))

    # the oracle: all 24 two-bit channels, full agreement required
    for table in itertools.permutations(range(4)):
        ops.append(_oracle(w, classical_channel((2, 2), table, primed=True), 2, "all-functions", True))
    # the oracle fault on 3-wire channels: fixed inputs, fail every time today
    for table in (np.arange(8), placed_table((2, 2, 2), [(_builtin_table("cnot", 2), (0, 1))])):
        ch = classical_channel((2, 2, 2), table, primed=True)
        path = w.channel(ch, stem="oracle_fault")
        for env_dim, cls in ((1, "atoms"), (1, "all-functions"), (2, "constants")):
            ops.append(_oracle(w, ch, env_dim, cls, False, known_fault=True, path=path))
    # seeded 3-wire channels under constants, where the oracle fault cannot arise
    for _ in range(8):
        ch = classical_channel((2, 2, 2), rng.permutation(8), primed=True)
        ops.append(_oracle(w, ch, 1, "constants", False))

    # classical mixed radix: random, product and controlled tables
    for k in range(24):
        dims = _mixed_dims(shape, 4, 64) if k < 20 else _mixed_dims(shape, 256, 1024)
        n = len(dims)
        a, b = _split(n, shape)
        kind = k % 3
        if kind == 0:
            table = rng.permutation(math.prod(dims))
        elif kind == 1:
            table = placed_table(dims, [
                (rng.permutation(math.prod(dims[p] for p in a)), a),
                (rng.permutation(math.prod(dims[p] for p in b)), b),
            ])
        else:
            table = controlled_table(dims, a, b, rng)
        ch = classical_channel(dims, table, primed=bool(k % 2))
        path = w.channel(ch)
        ops.append(_analyze(w, ch, path))
        ops.append(_hierarchy(w, ch, b, a, path))
        if not ch.names_out[0].endswith("'"):
            ops.append(_niwd(w, ch, b, path))
    for dims in ((4,) * 6, (2,) * 12):  # joint dimension 4096
        ch = classical_channel(dims, controlled_table(dims, [0], list(range(1, len(dims))), rng))
        ops.append(_hierarchy(w, ch, [len(dims) - 1], [0]))
    # influence without signalling: cnot (x) id and its seeded relatives take the witness search
    for k in range(4):
        dims = ((2, 2, 2), (3, 3, 2), (2, 2, 2, 2), (4, 2, 3))[k]
        table = (
            placed_table(dims, [(_builtin_table("cnot", 2), (0, 1))])
            if k == 0
            else controlled_table(dims, [0], [1], rng)
        )
        ch = classical_channel(dims, table, primed=True)
        ops.append(_hierarchy(w, ch, [1], [0]))

    # quantum: random unitaries, products (no signalling across) and permutations
    for k in range(12):
        n = (2, 3, 4, 2, 3, 5)[k % 6]
        dims = (2,) * n
        a, b = _split(n, shape)
        if k % 3 == 0:
            u = random_unitary(2**n, rng)
        elif k % 3 == 1:
            u = placed_unitary(dims, [(random_unitary(2 ** len(a), rng), a), (random_unitary(2 ** len(b), rng), b)])
        else:
            u = _perm_matrix(rng.permutation(2**n))
        ch = quantum_channel(dims, u, primed=bool(k % 2))
        path = w.channel(ch)
        ops.append(_analyze(w, ch, path))
        ops.append(_hierarchy(w, ch, a, b, path))
        if not ch.names_out[0].endswith("'"):
            ops.append(_niwd(w, ch, a, path))
    # no-signalling quantum pairs take the memory-verification path
    for n in (3, 4, 5):
        dims = (2,) * n
        a, b = [0], list(range(1, n))
        u = placed_unitary(dims, [(random_unitary(2, rng), a), (random_unitary(2 ** (n - 1), rng), b)])
        ch = quantum_channel(dims, u)
        ops.append(_hierarchy(w, ch, a, [n - 1]))
    dims = (2,) * 6
    ch = quantum_channel(dims, placed_unitary(dims, [(random_unitary(8, rng), [0, 2, 4]), (random_unitary(8, rng), [1, 3, 5])]))
    ops.append(_analyze(w, ch))
    return ops


BUILDERS = {"ring-classical": ring_classical, "ring-quantum": ring_quantum, "channel-mix": channel_mix}


def build(workload: str, seed: int, workdir: Path, fixtures: Path) -> list[Op]:
    """The op list of ``workload``, with its inputs written under ``workdir``.

    The shape of the workload (sizes, steps, wire splits, gate layouts) is
    fixed, so that its cost does not depend on the seed; the seed picks the
    tables and unitaries that fill it.
    """
    index = WORKLOADS.index(workload)
    shape = np.random.default_rng([SHAPE_SEED, index])
    rng = np.random.default_rng([seed, index])
    return BUILDERS[workload](Writer(workdir), shape, rng, fixtures)
