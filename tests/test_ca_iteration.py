"""`ca` computes each step count's relations once, incrementally."""

import json
from pathlib import Path

import numpy as np
import pytest

from causal_lens import automata, quantum
from causal_lens.automata import build_ring, neighbourhood_maps
from causal_lens.causal import wire_relations
from causal_lens.classical import ClassicalChannel
from causal_lens.cli import load_rule_file, main
from causal_lens.quantum import UnitaryChannel
from causal_lens.systems import composite

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
RINGS = {"staggered_cnot_ring.json": 6, "swap_chain_ring.json": 5, "single_cnot_layer_ring.json": 5}
MAX_STEPS = 3


def ring(fixture: str, model: str):
    cell_dim, layers = load_rule_file(str(FIXTURES / fixture), model)
    return build_ring(layers, RINGS[fixture], cell_dim, model=model)


def as_json(names, relations) -> dict:
    """The ``neighbourhoods`` payload of one map: each cell's sorted lists of names."""
    influence, signalling = relations
    return {
        cell: {
            "causal": sorted(t for t, hit in zip(names, r) if hit),
            "signalling": sorted(t for t, hit in zip(names, s) if hit),
        }
        for cell, r, s in zip(names, influence, signalling)
    }


@pytest.mark.parametrize("model", ["classical", "quantum"])
@pytest.mark.parametrize("fixture", sorted(RINGS))
def test_incremental_maps_match_per_step_maps(fixture, model, capsys):
    a, tol = ring(fixture, model), 1e-9
    powers = [a.step]  # U^t at step count t
    while len(powers) < MAX_STEPS:
        powers.append(a.step.compose(powers[-1]))
    direct = [wire_relations(u, tol) for u in powers]
    maps = neighbourhood_maps(a, MAX_STEPS, tol)
    assert len(maps) == len(direct)
    for (influence, signalling), (want_r, want_s) in zip(maps, direct):
        assert influence.dtype == signalling.dtype == bool
        assert np.array_equal(influence, want_r) and np.array_equal(signalling, want_s)
    for steps in range(1, MAX_STEPS + 1):
        argv = [
            "ca", str(FIXTURES / fixture), "--cells", str(RINGS[fixture]),
            "--steps", str(steps), "--model", model, "--format", "json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["neighbourhoods"] == as_json(a.system.names, direct[steps - 1])
        assert [c["step"] for c in payload["cones"]] == list(range(1, steps + 1))
        assert [c["causal_sizes"] for c in payload["cones"]] == [
            r.sum(1).tolist() for r, _ in direct[:steps]
        ]
        assert [c["signalling_sizes"] for c in payload["cones"]] == [
            s.sum(1).tolist() for _, s in direct[:steps]
        ]


def test_ca_rejects_steps_below_one(capsys):
    code = main(["ca", str(FIXTURES / "swap_chain_ring.json"), "--cells", "4", "--steps", "0"])
    assert code == 1
    assert "steps must be >= 1" in capsys.readouterr().err


def test_ca_over_cone_budget_exits_before_any_probe(capsys, monkeypatch):
    # 13 cells fit a raised dimension cap but exceed the 12-bit cone budget
    monkeypatch.setenv("CAUSAL_LENS_MAX_DIM", "8192")

    def no_probe(*args, **kwargs):
        raise AssertionError("a probe was built although the cone budget is exceeded")

    monkeypatch.setattr(ClassicalChannel, "_probes", no_probe)
    code = main(["ca", str(FIXTURES / "staggered_cnot_ring.json"), "--cells", "13"])
    assert code == 3
    assert "cone growth capped" in capsys.readouterr().err


def test_a_relation_that_breaks_the_composition_law_exits_2(capsys, monkeypatch):
    # the swap chain shifts every cell, so r_1 . r_1 is a permutation: a step-2
    # relation reporting every cell pair escapes it
    real, calls = automata.wire_relations, []

    def widened(u, tol):
        calls.append(u)
        influence, signalling = real(u, tol)
        if len(calls) == 2:
            influence[...] = True
        return influence, signalling

    monkeypatch.setattr(automata, "wire_relations", widened)
    argv = ["ca", str(FIXTURES / "swap_chain_ring.json"), "--cells", "4", "--steps", "2"]
    assert main(argv) == 2
    assert "escape the composed neighbourhoods" in capsys.readouterr().err
    assert len(calls) == 2


def test_quantum_ca_exits_0_where_the_thresholded_law_fails(tmp_path, capsys):
    # a near-identity 3-qubit gate on every cell: every off-diagonal delta_1 lies
    # below tol and every delta_2 above it, so the thresholded relations break
    # r_2 ⊆ r_1 . r_1 although the channel is valid
    rng = np.random.default_rng(1)
    z = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    w, v = np.linalg.eigh((z + z.conj().T) / 2)
    gate = (v * np.exp(1e-3j * w)) @ v.conj().T
    tol = 0.00399
    system = composite(*((name, 2) for name in "ABC"))
    u = UnitaryChannel(system, system, gate)
    off = ~np.eye(3, dtype=bool)
    assert quantum._gram_deltas(u, (0,), tol)[0][off].max() < tol
    assert quantum._gram_deltas(u.compose(u), (0,), tol)[0][off].min() > tol
    wires = [{"name": n, "dim": 2} for n in "ABC"]
    data = [[[x.real, x.imag] for x in row] for row in gate]
    gate_file = tmp_path / "near_identity.json"
    gate_file.write_text(
        json.dumps({"model": "quantum", "inputs": wires, "outputs": wires, "data": data})
    )
    rule = tmp_path / "ring.json"
    rule.write_text(json.dumps({"cell_dim": 2, "layers": [[{"gate": str(gate_file), "at": 0}]]}))
    argv = ["ca", str(rule), "--cells", "3", "--steps", "2", "--model", "quantum"]
    assert main(argv + ["--tol", str(tol), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [c["causal_sizes"] for c in payload["cones"]] == [[1, 1, 1], [3, 3, 3]]
