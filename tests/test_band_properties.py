"""Near the tolerance, every quantum verdict reads one normalised residual ``δ``.

Perturbing an exact gate by ``exp(i eps H)`` with ``‖H‖ <= 1`` moves each
``δ`` by at most ``2 eps``. On the fixture gates and rings ``δ`` is 0 or at
least 0.7, so with ``eps <= tol / 3`` no verdict may flip and no command may
exit 2. The two readings of ``δ`` (the probe of ``U`` and the probe of
``U+``, transposed) are one number, so they agree to rounding at any scale.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from causal_lens import causal, quantum
from causal_lens.cli import main
from causal_lens.errors import SpecError
from causal_lens.quantum import UnitaryChannel
from causal_lens.systems import composite

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# the two fixture layouts that fit a 4-cell ring
RULES = ("single_cnot_layer_ring.json", "swap_chain_ring.json")
GATES = {
    "cnot": quantum.cnot().matrix,
    "swap": quantum.swap_gate().matrix,
    "hadamard": quantum.hadamard().matrix,
}


def perturbed(matrix, seed, eps):
    """``exp(i eps H) U`` for a seeded Hermitian ``H`` of operator norm 1."""
    n = len(matrix)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    w, v = np.linalg.eigh((z + z.conj().T) / 2)
    w = w / np.max(np.abs(w))
    return (v * np.exp(1j * eps * w)) @ v.conj().T @ matrix


def write_gate(path, matrix):
    names = "ABC"[: int(np.log2(len(matrix)))]
    wires = [{"name": n, "dim": 2} for n in names]
    outs = [{"name": n + "'", "dim": 2} for n in names]
    data = [[[z.real, z.imag] for z in row] for row in matrix]
    path.write_text(json.dumps({"model": "quantum", "inputs": wires, "outputs": outs, "data": data}))
    return path


def verdicts(*argv):
    """The JSON payload of one command; any exit code but 0 fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv] + ["--format", "json"])
    assert code == 0, err.getvalue()
    return json.loads(out.getvalue())


def gate_verdicts(path, tol):
    out = [verdicts("analyze", path, "--tol", tol)["causal"]]
    wires = out[0].keys()
    for frm in wires:
        for to in wires:
            report = verdicts("hierarchy", path, "--from", frm, "--to", to + "'", "--tol", tol)
            assert report["consistent"] is True
            out.append([report[k] for k in ("causal_influence", "memory_decomposable", "signalling")])
    return out


def ring_verdicts(rule, tmp_path, gate_file, tol):
    layout = json.loads((FIXTURES / rule).read_text())
    for layer in layout["layers"]:
        for entry in layer:
            entry["gate"] = str(gate_file)
    path = tmp_path / rule
    path.write_text(json.dumps(layout))
    argv = ["ca", path, "--cells", 4, "--steps", 2, "--model", "quantum", "--tol", tol]
    payload = verdicts(*argv)
    return payload["neighbourhoods"], payload["cones"]


TOLS = st.sampled_from([1e-9, 1e-6, 1e-3, 0.05])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), fraction=st.floats(0.0, 1 / 3), tol=TOLS)
def test_perturbed_fixture_gates_keep_their_verdicts(tmp_path_factory, seed, fraction, tol):
    tmp_path = tmp_path_factory.mktemp("band")
    eps = fraction * tol
    for name, matrix in GATES.items():
        exact = write_gate(tmp_path / f"{name}.json", matrix)
        near = write_gate(tmp_path / f"{name}_near.json", perturbed(matrix, seed, eps))
        assert gate_verdicts(near, tol) == gate_verdicts(exact, tol)
    exact = write_gate(tmp_path / "cnot.json", GATES["cnot"])
    near = write_gate(tmp_path / "cnot_near.json", perturbed(GATES["cnot"], seed, eps))
    swap_exact = write_gate(tmp_path / "swap.json", GATES["swap"])
    swap_near = write_gate(tmp_path / "swap_near.json", perturbed(GATES["swap"], seed, eps))
    for rule in RULES:
        gates = (swap_exact, swap_near) if rule.startswith("swap") else (exact, near)
        want = ring_verdicts(rule, tmp_path, gates[0], tol)
        assert ring_verdicts(rule, tmp_path, gates[1], tol) == want


BAND_DIMS = [(2, 2), (3, 2), (2, 2, 2), (2, 3, 2)]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from(BAND_DIMS),
    eps=st.floats(1e-3, 0.1),
)
def test_the_delta_of_u_is_the_transposed_delta_of_its_inverse(seed, dims, eps):
    # S(A, t) is symmetric under U -> U+, so delta_U(A, t) = delta_U+(t, A)
    system = composite(*zip("ABC", dims))
    u = UnitaryChannel(system, system, perturbed(np.eye(system.total_dim), seed, eps))
    forward = causal._influence(u, eps)[1]
    backward = causal._influence(u.invert(), eps)[1].T
    assert np.allclose(forward, backward, rtol=1e-12, atol=0.0)
    assert np.all(forward > 0)


def test_a_block_is_decided_by_its_wires_inside_the_band(tmp_path):
    # the block's own delta lies above tol while each wire's lies below it; the
    # block verdict is the union of the wire verdicts, as in exact arithmetic
    matrix = perturbed(np.eye(8), 1, 0.01)
    system = composite(*((name, 2) for name in "ABC"))
    u = UnitaryChannel(system, system, matrix)
    wire = causal._influence(u, 1e-9)[1][0, 1:]
    tilde = causal.t_process(u, ["A"]).channel
    block = quantum._identity_factor(*quantum._paired_grid(tilde, ("B", "C")), tilde.atol)[0]
    tol = (wire.max() + block) / 2
    assert wire.max() < tol < block
    tp = causal.t_process(u, ["A"], tol)
    assert tp.idle_subset == {"B", "C"}
    assert tp.channel.factors_as_identity(tp.idle_subset, tol) is not None
    assert not causal.has_causal_influence(u, ["A"], ["B", "C"], tol)
    assert not u.signals(["A"], ["B", "C"], tol)
    assert causal.memory_decomposition(u, ["A"], ["B", "C"], tol) is not None
    report = causal.hierarchy_report(u, ["A"], ["B", "C"], tol)
    assert (report.causal_influence, report.memory_decomposable, report.signalling) == (
        False,
        True,
        False,
    )
    with pytest.raises(SpecError):
        causal.find_witness(u, ["A"], ["B", "C"], tol)
    path = write_gate(tmp_path / "near_identity.json", matrix)
    payload = verdicts("hierarchy", path, "--from", "A", "--to", "B',C'", "--tol", tol)
    assert (payload["causal_influence"], payload["consistent"]) == (False, True)
    assert verdicts("analyze", path, "--tol", tol)["causal"]["A"] == {"A'": True, "B'": False, "C'": False}
    # between the two wires' deltas, the block is influenced through one wire
    tol = wire.mean()
    report = causal.hierarchy_report(u, ["A"], ["B", "C"], tol)
    assert report.causal_influence and report.signalling and report.consistent
    assert causal.replay_witness(u, report.witness, tol)
