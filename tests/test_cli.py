import json
from pathlib import Path

import numpy as np
import pytest

from causal_lens.cli import load_channel_file, load_rule_file, main
from causal_lens.classical import ClassicalChannel
from causal_lens.quantum import UnitaryChannel

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if out else None), err


def test_analyze_cnot_matrices(capsys):
    code, payload, _ = run_json(capsys, "analyze", FIXTURES / "cnot.json")
    assert code == 0
    assert payload["causal"] == {
        "A": {"A'": True, "B'": True},
        "B": {"A'": True, "B'": True},
    }
    assert payload["signalling"]["B"]["A'"] is False
    assert payload["signalling"]["A"] == {"A'": True, "B'": True}
    assert payload["neighbourhoods"] == {"A": ["A'", "B'"], "B": ["A'", "B'"]}


def test_analyze_identity_diagonal(capsys):
    code, payload, _ = run_json(capsys, "analyze", FIXTURES / "identity.json")
    assert code == 0
    for i, row in payload["causal"].items():
        for o, flag in row.items():
            assert flag == (o == i + "'")
    assert payload["causal"] == payload["signalling"]


def test_analyze_swap_antidiagonal(capsys):
    code, payload, _ = run_json(capsys, "analyze", FIXTURES / "swap.json")
    assert code == 0
    assert payload["causal"] == {
        "A": {"A'": False, "B'": True},
        "B": {"A'": True, "B'": False},
    }
    assert payload["signalling"] == payload["causal"]


def test_analyze_quantum_cnot_all_true(capsys):
    code, payload, _ = run_json(capsys, "analyze", FIXTURES / "cnot_quantum.json")
    assert code == 0
    assert all(all(row.values()) for row in payload["signalling"].values())
    assert all(all(row.values()) for row in payload["causal"].values())


def test_model_override_lifts_classical(capsys):
    u = load_channel_file(str(FIXTURES / "cnot.json"), model_override="quantum")
    assert isinstance(u, UnitaryChannel)
    v = load_channel_file(str(FIXTURES / "cnot_quantum.json"), model_override="classical")
    assert isinstance(v, ClassicalChannel)
    assert v.table == (0, 1, 3, 2)


def test_hierarchy_cnot_target_to_control(capsys):
    code, payload, _ = run_json(
        capsys, "hierarchy", FIXTURES / "cnot.json", "--from", "B", "--to", "A'"
    )
    assert code == 0
    assert payload["causal_influence"] is True
    assert payload["memory_decomposable"] is True
    assert payload["signalling"] is False
    assert payload["consistent"] is True
    assert payload["witness"]["kind"] == "intervention"


def test_oracle_command(capsys):
    code, payload, _ = run_json(
        capsys, "oracle", FIXTURES / "cnot.json", "--env-dim", "2", "--class", "all-functions"
    )
    assert code == 0
    assert payload["sound"] is True and payload["full_agreement"] is True
    assert len(payload["pairs"]) == 4


def test_niwd_xorback_witness(capsys):
    code, payload, _ = run_json(capsys, "niwd", FIXTURES / "xorback.json")
    assert code == 0
    assert payload["verdict"] == "interaction-without-disturbance witness"
    assert payload["forced_influence"] is True


def test_niwd_identity_and_cnot(capsys):
    code, payload, _ = run_json(capsys, "niwd", FIXTURES / "identity.json", "--model", "classical")
    assert code == 1  # identity.json has primed outputs: not a matching-system channel
    code, payload, _ = run_json(capsys, "niwd", FIXTURES / "xorback.json", "--from", "B")
    assert code == 0


def test_ca_staggered_cone_gap(capsys):
    code, payload, _ = run_json(
        capsys, "ca", FIXTURES / "staggered_cnot_ring.json", "--cells", "6", "--steps", "2"
    )
    assert code == 0
    final = payload["cones"][-1]
    gaps = [
        c - s for c, s in zip(final["causal_sizes"], final["signalling_sizes"])
    ]
    assert all(g >= 0 for g in gaps) and any(g > 0 for g in gaps)


def test_ca_quantum_model(capsys):
    code, payload, _ = run_json(
        capsys,
        "ca",
        FIXTURES / "single_cnot_layer_ring.json",
        "--cells", "4", "--steps", "1",
        "--model", "quantum",
    )
    assert code == 0
    for cell, sets in payload["neighbourhoods"].items():
        assert sets["causal"] == sets["signalling"]


def test_exit_code_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, out, err = run(capsys, "analyze", bad)
    assert code == 1 and "invalid JSON" in err
    code, out, err = run(capsys, "analyze", tmp_path / "missing.json")
    assert code == 1
    notbij = tmp_path / "notbij.json"
    notbij.write_text(json.dumps({
        "model": "classical",
        "inputs": [{"name": "A", "dim": 2}],
        "outputs": [{"name": "A'", "dim": 2}],
        "data": [0, 0],
    }))
    code, out, err = run(capsys, "analyze", notbij)
    assert code == 1 and "bijection" in err


CNOT_CHANNEL = {
    "model": "classical",
    "inputs": [{"name": "A", "dim": 2}, {"name": "B", "dim": 2}],
    "outputs": [{"name": "A'", "dim": 2}, {"name": "B'", "dim": 2}],
    "data": [0, 1, 3, 2],
}
SWAP_RULE = {"cell_dim": 2, "layers": [[{"gate": "swap", "at": 0}]]}
# a bit flip next to a trivial wire, whose dim a boolean ``true`` would pass for
FLIP_WITH_TRIVIAL_WIRE = {
    "model": "classical",
    "inputs": [{"name": "A", "dim": 2}, {"name": "T", "dim": 1}],
    "outputs": [{"name": "A'", "dim": 2}, {"name": "T'", "dim": 1}],
    "data": [1, 0],
}


def with_entry(doc, path, value):
    """A deep copy of ``doc`` with the entry at the key/index ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "command,doc",
    [
        ("analyze", with_entry(CNOT_CHANNEL, ["inputs", 0, "dim"], "two")),
        ("analyze", with_entry(CNOT_CHANNEL, ["outputs", 1, "dim"], "2.5")),
        ("analyze", with_entry(CNOT_CHANNEL, ["inputs", 1, "dim"], 1e400)),
        ("analyze", with_entry(CNOT_CHANNEL, ["inputs", 0, "dim"], 2.5)),
        ("analyze", with_entry(FLIP_WITH_TRIVIAL_WIRE, ["inputs", 1, "dim"], True)),
        ("analyze", with_entry(FLIP_WITH_TRIVIAL_WIRE, ["outputs", 1, "dim"], True)),
        ("analyze", with_entry(CNOT_CHANNEL, ["inputs", 0, "dim"], "2")),
        ("analyze", with_entry(CNOT_CHANNEL, ["outputs", 0, "dim"], " 2 ")),
        ("ca", with_entry(SWAP_RULE, ["cell_dim"], "two")),
        ("ca", with_entry(SWAP_RULE, ["cell_dim"], None)),
        ("ca", with_entry(SWAP_RULE, ["cell_dim"], True)),
        ("ca", with_entry(SWAP_RULE, ["layers", 0, 0, "at"], 0.5)),
        ("ca", with_entry(SWAP_RULE, ["layers", 0, 0, "at"], "first")),
        ("ca", with_entry(SWAP_RULE, ["layers", 0, 0, "at"], False)),
        ("ca", with_entry(SWAP_RULE, ["layers", 0, 0, "at"], "1")),
        ("ca", with_entry(SWAP_RULE, ["layers"], 5)),
        ("ca", with_entry(SWAP_RULE, ["layers"], None)),
        ("ca", with_entry(SWAP_RULE, ["layers", 0], 7)),
        ("ca", with_entry(SWAP_RULE, ["layers", 0, 0, "gate"], 3)),
    ],
    ids=[
        "input-dim-word",
        "output-dim-decimal-string",
        "input-dim-overflow",
        "input-dim-fraction",
        "input-dim-true",
        "output-dim-true",
        "input-dim-digit-string",
        "output-dim-padded-digit-string",
        "cell-dim-word",
        "cell-dim-null",
        "cell-dim-true",
        "at-fraction",
        "at-word",
        "at-false",
        "at-digit-string",
        "layers-number",
        "layers-null",
        "layer-number",
        "gate-number",
    ],
)
def test_malformed_fields_are_parse_errors(capsys, tmp_path, command, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    extra = ["--cells", "4"] if command == "ca" else []
    code, out, err = run(capsys, command, bad, *extra)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {bad}: ")


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", FIXTURES / "cnot.json", "--model", "quantum"),
        ("ca", FIXTURES / "swap_chain_ring.json", "--cells", "4", "--model", "quantum"),
    ],
    ids=["analyze", "ca"],
)
def test_tol_must_be_finite_and_non_negative(capsys, argv, tol):
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv] + ["--tol", tol])
    out = capsys.readouterr()
    assert exc.value.code == 1 and out.out == ""
    assert f"error: argument --tol: invalid tolerance value: '{tol}'" in out.err


def test_rule_entries_naming_one_builtin_share_one_gate():
    for model in ("classical", "quantum"):
        _, layers = load_rule_file(str(FIXTURES / "staggered_cnot_ring.json"), model)
        gates = [gate for layer in layers for gate, _ in layer]
        assert len(gates) == 6 and all(gate is gates[0] for gate in gates)


def test_exit_code_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hierarchy", str(FIXTURES / "cnot.json"), "--from", "B"])
    assert exc.value.code == 1


def test_a_wire_named_twice_exits_1(capsys):
    code, out, err = run(capsys, "hierarchy", FIXTURES / "cnot.json", "--from", "B,B", "--to", "A'")
    assert code == 1 and out == "" and "duplicate names" in err


def test_oracle_on_a_quantum_file_exits_1_naming_the_classical_model(capsys):
    code, out, err = run(capsys, "oracle", FIXTURES / "cnot_quantum.json")
    assert code == 1 and out == "" and "classical model" in err


def test_exit_code_budget(capsys, monkeypatch):
    monkeypatch.setenv("CAUSAL_LENS_MAX_DIM", "2")
    code, out, err = run(capsys, "analyze", FIXTURES / "cnot.json")
    assert code == 3 and "exceeds" in err


def test_exit_code_consistency(capsys, monkeypatch):
    # an influence relation that forgets wires would make signalling escape causal
    import causal_lens.causal as causal_mod

    monkeypatch.setattr(
        causal_mod, "influence_relation", lambda u, tol: np.zeros((len(u.input), len(u.output)), bool)
    )
    code, out, err = run(capsys, "analyze", FIXTURES / "cnot.json")
    assert code == 2 and "consistency" in err


def test_deterministic_output_bytes(capsys):
    _, out1, _ = run(capsys, "analyze", FIXTURES / "cnot.json", "--format", "json")
    _, out2, _ = run(capsys, "analyze", FIXTURES / "cnot.json", "--format", "json")
    assert out1 == out2
    _, t1, _ = run(capsys, "ca", FIXTURES / "swap_chain_ring.json", "--cells", "4")
    _, t2, _ = run(capsys, "ca", FIXTURES / "swap_chain_ring.json", "--cells", "4")
    assert t1 == t2


def test_report_roundtrip(capsys):
    _, payload, _ = run_json(
        capsys, "hierarchy", FIXTURES / "cnot.json", "--from", "B", "--to", "A'"
    )
    again = json.loads(json.dumps(payload, indent=2, sort_keys=True))
    assert again == payload


def test_text_mode_timestamp_opt_in(capsys):
    _, out, _ = run(capsys, "analyze", FIXTURES / "cnot.json")
    assert "generated at" not in out
    _, out, _ = run(capsys, "analyze", FIXTURES / "cnot.json", "--timestamps")
    assert "generated at" in out
