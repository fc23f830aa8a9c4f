"""`ca` computes each step count's neighbourhood map once, incrementally."""

import json
from pathlib import Path

import pytest

from causal_lens import causal
from causal_lens.automata import build_ring, cone_growth, neighbourhood_map, neighbourhood_maps
from causal_lens.cli import load_rule_file, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
RINGS = {"staggered_cnot_ring.json": 6, "swap_chain_ring.json": 5, "single_cnot_layer_ring.json": 5}
MAX_STEPS = 3


def ring(fixture: str, model: str):
    cell_dim, layers = load_rule_file(str(FIXTURES / fixture), model)
    return build_ring(layers, RINGS[fixture], cell_dim, model=model)


def as_json(entries) -> dict:
    return {
        e.cell: {"causal": sorted(e.causal), "signalling": sorted(e.signalling)}
        for e in entries
    }


@pytest.mark.parametrize("model", ["classical", "quantum"])
@pytest.mark.parametrize("fixture", sorted(RINGS))
def test_incremental_maps_match_per_step_maps(fixture, model, capsys):
    a = ring(fixture, model)
    direct = [neighbourhood_map(a, t) for t in range(1, MAX_STEPS + 1)]
    assert list(neighbourhood_maps(a, MAX_STEPS)) == direct
    rows = cone_growth(a, MAX_STEPS)
    assert [row.step for row in rows] == list(range(1, MAX_STEPS + 1))
    for row, nm in zip(rows, direct):
        assert row.causal_sizes == tuple(len(e.causal) for e in nm)
        assert row.signalling_sizes == tuple(len(e.signalling) for e in nm)
    for steps in range(1, MAX_STEPS + 1):
        argv = [
            "ca", str(FIXTURES / fixture), "--cells", str(RINGS[fixture]),
            "--steps", str(steps), "--model", model, "--format", "json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["neighbourhoods"] == as_json(direct[steps - 1])
        assert [c["causal_sizes"] for c in payload["cones"]] == [
            list(row.causal_sizes) for row in rows[:steps]
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

    monkeypatch.setattr(causal, "_probes", no_probe)
    code = main(["ca", str(FIXTURES / "staggered_cnot_ring.json"), "--cells", "13"])
    assert code == 3
    assert "cone growth capped" in capsys.readouterr().err
