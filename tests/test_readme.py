"""README's Python quick tour and command-line block run as written, and every
``module.name`` it cites resolves in that module."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

from causal_lens.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def fenced(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


COMMANDS = [
    shlex.split(line)[1:]
    for block in fenced("sh")
    for line in block.splitlines()
    if line.startswith("causal-lens ")
]


def test_quick_tour_runs():
    (tour,) = fenced("python")
    exec(compile(tour, "README.md", "exec"), {})


def test_readme_lists_commands():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a) for a in COMMANDS])
def test_command_line_example_exits_0(capsys, monkeypatch, argv):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0, capsys.readouterr().err


MODULES = {p.stem for p in (ROOT / "src" / "causal_lens").glob("*.py")} - {"__init__"}
CITED = sorted(
    set(re.findall(rf"`(?:causal_lens\.)?({'|'.join(MODULES)})\.(\w+)", README))
)


def test_readme_cites_names():
    assert ("quantum", "_identity_factor") in CITED


@pytest.mark.parametrize("module,name", CITED, ids=[".".join(c) for c in CITED])
def test_every_cited_module_name_resolves(module, name):
    assert hasattr(importlib.import_module(f"causal_lens.{module}"), name)
