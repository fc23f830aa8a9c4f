"""Byte-identical ``--format json`` output of every command on every fixture.

The goldens in ``data/cli_golden.json`` hold the exit code, standard output
and standard error of each command below, with the fixture's path replaced
by its file name. A change that alters any of them changes what the tool
reports, and must say so. To record an intended change, run
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from causal_lens.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

CHANNELS = ("cnot", "cnot_quantum", "identity", "swap", "xorback")
RINGS = ("single_cnot_layer_ring", "staggered_cnot_ring", "swap_chain_ring")
MODELS = ("classical", "quantum")


def commands():
    """(fixture name, argv without ``--format json``) for each command, in a fixed order."""
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
    for name in RINGS:
        path = FIXTURES / f"{name}.json"
        for model in MODELS:
            for cells in (4, 6):
                yield name, ["ca", path, "--cells", str(cells), "--steps", "2", "--model", model]


def key(argv) -> str:
    return " ".join(Path(a).name if isinstance(a, Path) else a for a in argv)


def run(name: str, argv) -> list:
    """[exit code, stdout, stderr] of one command, the fixture path normalised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv] + ["--format", "json"])
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
    return json.loads(GOLDEN.read_text())


def test_goldens_cover_every_command(golden):
    assert sorted(golden) == sorted(key(argv) for _, argv in CASES)
    assert {argv[0] for _, argv in CASES} == {"analyze", "hierarchy", "niwd", "oracle", "ca"}


@pytest.mark.parametrize("name,argv", CASES, ids=[key(a) for _, a in CASES])
def test_json_output_matches_golden(golden, name, argv):
    assert run(name, argv) == golden[key(argv)]


if __name__ == "__main__":
    result = {key(argv): run(name, argv) for name, argv in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(result)} goldens to {GOLDEN}")
