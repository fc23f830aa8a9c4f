"""Byte-identical output of every command on every fixture, in both formats.

The goldens in ``data/cli_golden.json`` (``--format json``) and
``data/cli_golden_text.json`` (the default text format) hold the exit code,
standard output and standard error of each command below, with the fixture's
path replaced by its file name. A change that alters any of them changes what
the tool reports, and must say so. To record an intended change, run
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from causal_lens.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDENS = {
    fmt: Path(__file__).resolve().parent / "data" / f"cli_golden{suffix}.json"
    for fmt, suffix in (("json", ""), ("text", "_text"))
}

CHANNELS = ("cnot", "cnot_quantum", "identity", "swap", "xorback")
RINGS = ("hadamard_cnot_ring", "single_cnot_layer_ring", "staggered_cnot_ring", "swap_chain_ring")
MODELS = ("classical", "quantum")


def commands():
    """(fixture name, argv without ``--format``) for each command, in a fixed order."""
    for name in CHANNELS:
        path = FIXTURES / f"{name}.json"
        spec = json.loads(path.read_text())
        ins, outs = ([p["name"] for p in spec[side]] for side in ("inputs", "outputs"))
        for model in MODELS:
            m = ["--model", model]
            yield name, ["analyze", path, *m]
            for frm in [*ins, ",".join(ins)]:
                for to in [*outs, ",".join(outs)]:
                    yield name, ["hierarchy", path, "--from", frm, "--to", to, *m]
            yield name, ["niwd", path, *m]
            for frm in ins:
                yield name, ["niwd", path, "--from", frm, *m]
        for cls in ("constants", "atoms", "all-functions"):
            yield name, ["oracle", path, "--model", "classical", "--class", cls]
    # influence that neither U nor its inverse signals classically; its lift signals
    path = FIXTURES / "hidden_influence.json"
    yield "hidden_influence", ["analyze", path, "--model", "classical"]
    pairs = (("B", "B'", "classical"), ("A", "C'", "classical"), ("B", "B'", "quantum"))
    for frm, to, model in pairs:
        yield "hidden_influence", ["hierarchy", path, "--from", frm, "--to", to, "--model", model]
    # the oracle's only run on a three-wire table
    for cls in ("constants", "atoms", "all-functions"):
        yield "hidden_influence", ["oracle", path, "--model", "classical", "--class", cls]
    for name in RINGS:
        path = FIXTURES / f"{name}.json"
        for model in MODELS:
            for cells in (4, 6):
                yield name, ["ca", path, "--cells", str(cells), "--steps", "2", "--model", model]


def key(argv) -> str:
    return " ".join(Path(a).name if isinstance(a, Path) else a for a in argv)


def run(name: str, argv, fmt: str = "json") -> list:
    """[exit code, stdout, stderr] of one command, the fixture path normalised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv] + ["--format", fmt])
    path = str(FIXTURES / f"{name}.json")
    normal = f"{name}.json"
    return [
        code,
        out.getvalue().replace(json.dumps(path), json.dumps(normal)),
        err.getvalue().replace(path, normal),
    ]


CASES = list(commands())


@pytest.fixture(scope="module")
def golden():
    return {fmt: json.loads(path.read_text()) for fmt, path in GOLDENS.items()}


@pytest.mark.parametrize("fmt", GOLDENS)
def test_goldens_cover_every_command(golden, fmt):
    assert sorted(golden[fmt]) == sorted(key(argv) for _, argv in CASES)
    assert {argv[0] for _, argv in CASES} == {"analyze", "hierarchy", "niwd", "oracle", "ca"}


@pytest.mark.parametrize("name,argv", CASES, ids=[key(a) for _, a in CASES])
def test_json_output_matches_golden(golden, name, argv):
    assert run(name, argv) == golden["json"][key(argv)]


@pytest.mark.parametrize("name,argv", CASES, ids=[key(a) for _, a in CASES])
def test_text_output_matches_golden(golden, name, argv):
    assert run(name, argv, "text") == golden["text"][key(argv)]


if __name__ == "__main__":
    for fmt, path in GOLDENS.items():
        result = {key(argv): run(name, argv, fmt) for name, argv in CASES}
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(result)} {fmt} goldens to {path}")
