import json
from pathlib import Path

import numpy as np
import pytest

from causal_lens import classical, cli, quantum
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
    assert v.table.tolist() == [0, 1, 3, 2]


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


@pytest.mark.parametrize(
    "entry,status,message",
    [
        ((0, 1), "budget-limited", "no constant preparation witnessed"),
        ((0, 0), "soundness-violation", "the probe process missed"),
    ],
    ids=["probe-over-reports", "probe-under-reports"],
)
def test_oracle_exits_2_on_any_disagreement(capsys, monkeypatch, entry, status, message):
    # the identity's relation is its diagonal; one entry flipped either way is a bug
    from causal_lens import oracle

    relation = oracle.influence_relation

    def flipped(u, *args, **kwargs):
        rel = relation(u, *args, **kwargs).copy()
        rel[entry] = not rel[entry]
        return rel

    monkeypatch.setattr(oracle, "influence_relation", flipped)
    code, payload, err = run_json(capsys, "oracle", FIXTURES / "identity.json")
    assert code == 2 and message in err
    assert [p["status"] for p in payload["pairs"]].count(status) == 1
    assert payload["full_agreement"] is False


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


def one_gate_rule(tmp_path, gate, cell_dim=2):
    """A rule file with one layer: ``gate`` at cell 0."""
    path = tmp_path / "rule.json"
    path.write_text(json.dumps({"cell_dim": cell_dim, "layers": [[{"gate": gate, "at": 0}]]}))
    return path


@pytest.mark.parametrize(
    "gate,model", [("identity", "classical"), ("identity", "quantum"), ("hadamard", "quantum")]
)
def test_one_cell_builtins_keep_each_cell_to_itself(capsys, tmp_path, gate, model):
    code, payload, _ = run_json(
        capsys, "ca", one_gate_rule(tmp_path, gate), "--cells", "3", "--model", model
    )
    assert code == 0
    assert payload["neighbourhoods"] == {
        c: {"causal": [c], "signalling": [c]} for c in ("c0", "c1", "c2")
    }


@pytest.mark.parametrize(
    "gate,cell_dim,model,message",
    [
        ("hadamard", 2, "classical", "the hadamard builtin needs --model quantum"),
        ("hadamard", 3, "quantum", "the hadamard builtin needs cell_dim 2"),
        (
            "toffoli",
            2,
            "classical",
            "gate 'toffoli' is neither a builtin ['cnot', 'hadamard', 'identity', 'swap'] nor a file",
        ),
        (".", 2, "classical", "gate '.' is neither a builtin"),
    ],
    ids=["hadamard-classical", "hadamard-cell-dim-3", "unknown-builtin", "directory"],
)
def test_a_builtin_it_cannot_build_exits_1(capsys, tmp_path, gate, cell_dim, model, message):
    rule = one_gate_rule(tmp_path, gate, cell_dim)
    code, out, err = run(capsys, "ca", rule, "--cells", "2", "--model", model)
    assert code == 1 and out == "" and message in err


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

# the 1-qubit identity, each entry a JSON [re, im] pair
QUBIT_IDENTITY = {
    "model": "quantum",
    "inputs": [{"name": "A", "dim": 2}],
    "outputs": [{"name": "A'", "dim": 2}],
    "data": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
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
        ("analyze", with_entry(CNOT_CHANNEL, ["data", 1], 1.7)),
        ("analyze", with_entry(CNOT_CHANNEL, ["data", 1], "1")),
        ("analyze", with_entry(CNOT_CHANNEL, ["data", 1], True)),
        ("analyze", with_entry(QUBIT_IDENTITY, ["data", 0, 0, 0], True)),
        ("analyze", with_entry(QUBIT_IDENTITY, ["data", 1, 1, 1], False)),
        ("analyze", with_entry(QUBIT_IDENTITY, ["data", 0, 1, 0], 10**400)),
        ("analyze", with_entry(CNOT_CHANNEL, ["data", 1], 10**400)),
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
        "data-fraction",
        "data-digit-string",
        "data-true",
        "quantum-entry-true",
        "quantum-entry-false",
        "quantum-entry-overflow",
        "data-overflow",
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


# an invalid rule file whose third line is " x}": its position is 3:2 whatever
# the line ends, as a text-mode read counts lines
BROKEN_LINES = [b'{"cell_dim": 2,', b' "layers": [[{"gate": "cnot", "at": 0}]', b" x}"]


@pytest.mark.parametrize("command", ["analyze", "ca"])
@pytest.mark.parametrize(
    "content,message",
    [
        (None, ": cannot read: Is a directory"),
        (b"\xff\xfe{}", ": not UTF-8 text"),
        (b"5", ": the top level must be a JSON object"),
        (b'["model", "inputs", "outputs", "data", "cell_dim", "layers"]', ": the top level must be a JSON object"),
        (b'{"cell_dim": ' + b"9" * 5000 + b"}", ": invalid JSON: Exceeds the limit"),
        (b"[" * 100000 + b"]" * 100000, ": invalid JSON: nested too deeply"),
        (b"\r\n".join(BROKEN_LINES), ":3:2: invalid JSON: Expecting ',' delimiter"),
        (b"\r".join(BROKEN_LINES), ":3:2: invalid JSON: Expecting ',' delimiter"),
    ],
    ids=[
        "directory", "utf-16-bom", "number", "list-of-keys", "long-integer", "deep-nesting",
        "crlf-line-ends", "cr-line-ends",
    ],
)
def test_an_unreadable_file_is_a_parse_error(capsys, tmp_path, command, content, message):
    path = tmp_path
    if content is not None:
        path = tmp_path / "bad.json"
        path.write_bytes(content)
    extra = ["--cells", "4"] if command == "ca" else []
    code, out, err = run(capsys, command, path, *extra)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}{message}") and err.count("\n") == 1


def ring_with_gate(path, gate):
    """The staggered CNOT ring fixture with every ``cnot`` entry naming ``gate``."""
    rule = json.loads((FIXTURES / "staggered_cnot_ring.json").read_text())
    for layer in rule["layers"]:
        for entry in layer:
            entry["gate"] = gate
    path.write_text(json.dumps(rule))
    return path


@pytest.mark.parametrize("model", ["classical", "quantum"])
def test_a_gate_path_is_joined_to_the_rule_files_directory(capsys, monkeypatch, tmp_path, model):
    def payload(rule):
        code, out, err = run_json(capsys, "ca", rule, "--cells", "6", "--model", model)
        assert code == 0 and err == ""
        return {k: v for k, v in out.items() if k != "file"}

    builtin = payload(FIXTURES / "staggered_cnot_ring.json")
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "gate.json").write_text((FIXTURES / "cnot.json").read_text())
    ring_with_gate(sub / "bare.json", "gate.json")
    nested = ring_with_gate(tmp_path / "nested.json", "sub/gate.json")
    absolute = ring_with_gate(tmp_path / "absolute.json", str(sub / "gate.json"))
    monkeypatch.chdir(sub)
    for rule in ("bare.json", nested, absolute):
        assert payload(rule) == builtin


def test_a_gate_path_in_a_message_is_the_directory_joined_as_written(capsys, monkeypatch, tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "bad.json").write_text(json.dumps({"model": "classical"}))
    one_gate_rule(tmp_path, "sub//bad.json")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "ca", "./rule.json", "--cells", "2")
    assert (code, out, err) == (1, "", "error: ./sub//bad.json: missing key 'inputs'\n")


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


def qubit_names(matrix):
    """A, B for a 4 x 4 matrix; A, B, C for an 8 x 8 one."""
    return "ABC"[: round(np.log2(len(matrix)))]


def quantum_file(path, matrix):
    """Write ``matrix`` as a quantum channel file on the qubits ``qubit_names(matrix)``."""
    qubits = [{"name": name, "dim": 2} for name in qubit_names(matrix)]
    path.write_text(json.dumps({
        "model": "quantum",
        "inputs": qubits,
        "outputs": qubits,
        "data": [[[z.real, z.imag] for z in row] for row in np.asarray(matrix, complex)],
    }))
    return path


H_ID = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), np.eye(2))


@pytest.mark.parametrize(
    "command,extra",
    [
        ("analyze", []),
        ("hierarchy", ["--from", "A", "--to", "B"]),
        ("niwd", []),
        ("ca", ["--cells", "2", "--model", "quantum"]),
    ],
)
def test_input_channels_are_certified_at_1e_9_whatever_the_tol(capsys, tmp_path, command, extra):
    # unitarity defect 1e-6: inside --tol 1e-3, outside the certificate
    target = quantum_file(tmp_path / "gate.json", H_ID * (1 + 5e-7))
    if command == "ca":
        target = tmp_path / "rule.json"
        target.write_text(json.dumps({"cell_dim": 2, "layers": [[{"gate": "gate.json", "at": 0}]]}))
    code, out, err = run(capsys, command, target, *extra, "--tol", "1e-3")
    assert code == 1 and out == ""
    assert "unitarity certificate failed: max |U+U - I| = 1.000e-06" in err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize(
    "command,extra",
    [
        ("analyze", []),
        ("hierarchy", ["--from", "A", "--to", "B"]),
        ("niwd", []),
        ("ca", ["--cells", "2", "--model", "quantum"]),
    ],
)
def test_a_non_finite_matrix_entry_fails_the_certificate(capsys, tmp_path, command, extra, value):
    # Python's json reads NaN, Infinity and -Infinity; no comparison passes them
    target = quantum_file(tmp_path / "gate.json", H_ID)
    doc = json.loads(target.read_text())
    doc["data"][1][3][0] = float(value)
    target.write_text(json.dumps(doc))
    assert value in target.read_text()
    if command == "ca":
        target = tmp_path / "rule.json"
        target.write_text(json.dumps({"cell_dim": 2, "layers": [[{"gate": "gate.json", "at": 0}]]}))
    code, out, err = run(capsys, command, target, *extra)
    assert code == 1 and out == ""
    assert "unitarity certificate failed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "{tmp}/h_id.json"),
        ("analyze", str(FIXTURES / "cnot.json"), "--model", "quantum"),
        ("ca", "{tmp}/hadamard_ring.json", "--cells", "2", "--model", "quantum"),
    ],
    ids=["analyze", "analyze-coerced", "ca"],
)
@pytest.mark.parametrize("tol", ["0", "1e-10"])
def test_a_quantum_tol_below_the_certificate_floor_exits_1(capsys, tmp_path, argv, tol):
    quantum_file(tmp_path / "h_id.json", H_ID)
    (tmp_path / "hadamard_ring.json").write_text(
        json.dumps({"cell_dim": 2, "layers": [[{"gate": "hadamard", "at": 0}]]})
    )
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv), "--tol", tol)
    assert code == 1 and out == ""
    assert f"--tol {float(tol)} is below the quantum floor 1e-09" in err


def test_a_matrix_reads_as_a_permutation_at_1e_9_whatever_the_tol(capsys, tmp_path):
    # a rotation on A: inside --tol 1e-3 of the identity, not a permutation. By
    # 1e-4 its diagonal is 5e-9 off 1; by 3e-5 only 4.5e-10, so the entry 3e-5
    # off the diagonal is what refuses it
    for angle in (1e-4, 3e-5):
        rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        path = quantum_file(tmp_path / "rotation.json", np.kron(rotation, np.eye(2)))
        code, out, err = run(capsys, "analyze", path, "--model", "classical", "--tol", "1e-3")
        assert code == 1 and out == ""
        assert "matrix is not a permutation; cannot force --model classical" in err


def test_the_certificate_floor_is_a_valid_quantum_tol(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", quantum_file(tmp_path / "h_id.json", H_ID), "--tol", "1e-9")
    assert code == 0, err


# Known defects: each matrix passes its own unitarity certificate (1e-9), but a
# check derived from it holds it to a bound that does not follow from the input's.
# (a) the identity with entry [0][1] = 1e-10 (defect 1e-10): the probe reads
#     δ(A→B) = 7.07e-11 and the signalling pass 5.0e-11, further apart than
#     the 1e-12 floor of their comparison, so both commands exit 2.
# (b) H ⊗ 1 with entries ±0.707106781 (defect 5.3e-10): the probe's defect is
#     2η + η² of the input's η, yet it is certified at 1e-9, so both exit 1.
# (c) a spectator beside a gate, (cnot + 1e-12·G) ⊗ 1_C (defect 1.59e-12): the
#     probe reads δ(A→C) = 0 exactly, the signalling pass about 0.8 of the
#     defect, above the 1e-12 floor, so both exit 2. At 1e-13·G both exit 0.
IDENTITY_WITH_1E_10 = np.eye(4)
IDENTITY_WITH_1E_10[0, 1] = 1e-10
H_ID_ROUNDED = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]) * 0.707106781, np.eye(2))
CNOT = quantum.cnot().matrix
G = np.random.default_rng(5).uniform(-1.0, 1.0, size=(4, 4))
DERIVED_BOUNDS = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="derived bounds ignore the input's certificate"
)


@pytest.mark.parametrize(
    "matrix",
    [
        pytest.param(IDENTITY_WITH_1E_10, id="identity-1e-10", marks=DERIVED_BOUNDS),
        pytest.param(H_ID_ROUNDED, id="h-rounded", marks=DERIVED_BOUNDS),
        pytest.param(np.kron(CNOT + 1e-12 * G, np.eye(2)), id="spectator-1e-12", marks=DERIVED_BOUNDS),
        pytest.param(np.kron(CNOT + 1e-13 * G, np.eye(2)), id="spectator-1e-13"),
    ],
)
@pytest.mark.parametrize("command", ["analyze", "hierarchy"])
def test_input_within_its_certificate_exits_0(capsys, tmp_path, matrix, command):
    # from A to the last qubit: the spectator C of a three-qubit input
    extra = [] if command == "analyze" else ["--from", "A", "--to", qubit_names(matrix)[-1]]
    code, _, err = run(capsys, command, quantum_file(tmp_path / "gate.json", matrix), *extra)
    assert code == 0, err


@pytest.mark.parametrize("eta,defect", [(1e-12, 1.59e-12), (1e-13, 1.59e-13)])
def test_the_spectator_inputs_pass_their_certificate(eta, defect):
    m = np.kron(CNOT + eta * G, np.eye(2))
    assert quantum._unitarity_defects(m) == pytest.approx(defect, rel=1e-2)


# Known defects of derived channels: each gate file cnot + η'·G passes its own
# certificate, but the ring step and its probes are certified at the input bound.
# One gate at cell 0 (η' = 1e-11) is the spectator case above on 3 and more cells,
# exit 2; on the 4-cell brickwork (η' = 1e-10) the second step's probe stack fails
# its certificate (1.952e-09), exit 1. On the 6-cell brickwork one step is enough:
# at η' = 1e-11 the probe and signalling readings of a δ differ, exit 2; at
# η' = 1e-10 the probe stack fails its certificate (1.464e-09), exit 1. A verdict
# the budget cannot support may exit 1 naming the step, never 2 and never on a
# failed certificate.
DERIVED_CERTIFICATES = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="derived channels are certified at the input bound"
)


@pytest.mark.parametrize(
    "eta,layers,cells,steps",
    [
        pytest.param(1e-11, [[0]], 2, 1, id="one-gate-2-cells"),
        pytest.param(1e-11, [[0]], 3, 1, id="one-gate-3-cells", marks=DERIVED_CERTIFICATES),
        pytest.param(1e-11, [[0]], 6, 1, id="one-gate-6-cells", marks=DERIVED_CERTIFICATES),
        pytest.param(1e-10, [[0, 2], [1, 3]], 4, 1, id="brickwork-1-step"),
        pytest.param(1e-10, [[0, 2], [1, 3]], 4, 2, id="brickwork-2-steps", marks=DERIVED_CERTIFICATES),
        pytest.param(
            1e-11, [[0, 2, 4], [1, 3, 5]], 6, 1, id="brickwork-6-cells-1e-11", marks=DERIVED_CERTIFICATES
        ),
        pytest.param(
            1e-10, [[0, 2, 4], [1, 3, 5]], 6, 1, id="brickwork-6-cells-1e-10", marks=DERIVED_CERTIFICATES
        ),
    ],
)
def test_ca_on_gate_files_within_their_certificate(capsys, tmp_path, eta, layers, cells, steps):
    quantum_file(tmp_path / "gate.json", CNOT + eta * G)
    rule = tmp_path / "rule.json"
    placed = [[{"gate": "gate.json", "at": at} for at in layer] for layer in layers]
    rule.write_text(json.dumps({"cell_dim": 2, "layers": placed}))
    code, _, err = run(
        capsys, "ca", rule, "--cells", str(cells), "--steps", str(steps), "--model", "quantum"
    )
    assert code != 2 and "unitarity certificate failed" not in err, err


def test_niwd_on_a_channel_without_wires_exits_1(capsys, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"model": "classical", "inputs": [], "outputs": [], "data": [0]}))
    code, out, err = run(capsys, "niwd", empty)
    assert code == 1 and out == ""
    assert "the acting block needs at least one wire" in err


def test_niwd_on_a_wire_that_changes_dimension_exits_1(capsys, tmp_path):
    turned = tmp_path / "turned.json"
    turned.write_text(json.dumps({
        "model": "classical",
        "inputs": [{"name": "A", "dim": 2}, {"name": "B", "dim": 3}],
        "outputs": [{"name": "A", "dim": 3}, {"name": "B", "dim": 2}],
        "data": list(range(6)),
    }))
    code, out, err = run(capsys, "niwd", turned)
    assert code == 1 and out == ""
    assert "wire 'A' changes dimension between input and output" in err


@pytest.mark.parametrize(
    "command,extra",
    [
        ("analyze", []),
        ("hierarchy", ["--from", "A", "--to", "B"]),
        ("niwd", []),
        ("ca", ["--cells", "2", "--model", "quantum"]),
    ],
)
def test_a_failed_factor_certificate_exits_2(capsys, monkeypatch, tmp_path, command, extra):
    # no factor meets a negative unitarity bound: every caller of the kernel raises
    monkeypatch.setattr(quantum, "_factor_atol", lambda eps, atol: -1.0)
    target = quantum_file(tmp_path / "gate.json", H_ID)
    if command == "ca":
        target = tmp_path / "rule.json"
        target.write_text(json.dumps({"cell_dim": 2, "layers": [[{"gate": "gate.json", "at": 0}]]}))
    code, out, err = run(capsys, command, target, *extra)
    assert code == 2 and out == ""
    assert "did not combine into a joint factorization" in err


def test_exit_code_budget(capsys, monkeypatch):
    monkeypatch.setenv("CAUSAL_LENS_MAX_DIM", "2")
    code, out, err = run(capsys, "analyze", FIXTURES / "cnot.json")
    assert code == 3 and "exceeds" in err


@pytest.mark.parametrize("model", ["classical", "quantum"])
@pytest.mark.parametrize("gate", ["cnot", "swap"])
def test_a_builtin_gate_over_the_cap_exits_3_before_its_table_is_built(
    capsys, monkeypatch, tmp_path, model, gate
):
    # 5**2 = 25 entries exceed a cap of 16: the ring would be rejected, so the gate is never built
    monkeypatch.setenv("CAUSAL_LENS_MAX_DIM", "16")
    cli._builtin_gate.cache_clear()
    built = []
    for name in ("cnot", "swap_gate"):
        real = getattr(classical, name)
        spy = lambda *a, _name=name, _real=real, **k: built.append(_name) or _real(*a, **k)
        monkeypatch.setattr(classical, name, spy)
    path = tmp_path / "rule.json"
    path.write_text(json.dumps({"cell_dim": 5, "layers": [[{"gate": gate, "at": 0}]]}))
    code, out, err = run(capsys, "ca", path, "--cells", "2", "--model", model)
    assert built == []
    assert code == 3 and out == ""
    assert f"{gate} gate dimension 5**2 exceeds the cap of 16" in err


@pytest.mark.parametrize("model", ["classical", "quantum"])
def test_a_builtin_gate_cached_under_the_default_cap_is_checked_against_a_lower_one(
    capsys, monkeypatch, model
):
    # the gate is built and cached under the default cap; the lower cap must
    # still reject it at the gate, not only later at the ring
    ring = FIXTURES / "staggered_cnot_ring.json"
    monkeypatch.delenv("CAUSAL_LENS_MAX_DIM", raising=False)
    assert run(capsys, "ca", ring, "--cells", "6", "--model", model)[0] == 0
    assert cli._builtin_gate.cache_info().currsize > 0
    monkeypatch.setenv("CAUSAL_LENS_MAX_DIM", "3")
    code, out, err = run(capsys, "ca", ring, "--cells", "2", "--model", model)
    assert code == 3 and out == ""
    assert "cnot gate dimension 2**2 exceeds the cap of 3" in err


def test_a_quantum_file_over_the_quantum_cap_exits_3_under_any_model(capsys, tmp_path):
    # a 7-qubit identity (D = 128) is parsed as a quantum matrix whatever --model says
    qubits = [{"name": f"q{k}", "dim": 2} for k in range(7)]
    path = tmp_path / "identity7.json"
    path.write_text(json.dumps({
        "model": "quantum",
        "inputs": qubits,
        "outputs": qubits,
        "data": [[[float(r == c), 0.0] for c in range(128)] for r in range(128)],
    }))
    for model in ([], ["--model", "quantum"], ["--model", "classical"]):
        code, out, err = run(capsys, "analyze", path, *model)
        assert code == 3 and out == ""
        assert "joint dimension 128 exceeds the quantum cap" in err


@pytest.mark.parametrize("raw", ["0", "-5", "abc"])
def test_a_max_dim_that_is_not_a_positive_integer_is_a_parse_error(capsys, monkeypatch, raw):
    monkeypatch.setenv("CAUSAL_LENS_MAX_DIM", raw)
    code, out, err = run(capsys, "analyze", FIXTURES / "cnot.json")
    assert code == 1 and out == ""
    assert f"CAUSAL_LENS_MAX_DIM must be a positive integer, got {raw!r}" in err


def test_exit_code_consistency(capsys, monkeypatch):
    # an influence relation that forgets wires would make signalling escape causal
    monkeypatch.setattr(
        ClassicalChannel,
        "_influence_relation",
        lambda u, tol: np.zeros((len(u.input), len(u.output)), bool),
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


def test_hierarchy_inside_the_tolerance_band_exits_0(capsys, tmp_path):
    # the 3x2 exp(0.03i H) of numpy seed 11 has delta(A, B) = 0.1367; its old
    # entrywise readings (0.0986 signalling, 0.1375 probe) put --tol 0.099
    # between them, and the command exited 2
    rng = np.random.default_rng(11)
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    w, v = np.linalg.eigh(h + h.conj().T)
    u = (v * np.exp(0.03j * w)) @ v.conj().T
    wires = [{"name": "A", "dim": 3}, {"name": "B", "dim": 2}]
    data = [[[z.real, z.imag] for z in row] for row in u]
    path = tmp_path / "band.json"
    path.write_text(json.dumps({"model": "quantum", "inputs": wires, "outputs": wires, "data": data}))
    argv = ["hierarchy", path, "--from", "A", "--to", "B", "--tol", "0.099", "--model", "quantum"]
    code, payload, err = run_json(capsys, *argv)
    assert code == 0, err
    assert payload["consistent"] is True
    assert payload["causal_influence"] is payload["signalling"] is True
