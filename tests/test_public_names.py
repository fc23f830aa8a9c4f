"""Every name a module exports resolves: tooling wraps each ``__all__`` entry by ``getattr``."""

import importlib
import pkgutil

import pytest

import causal_lens

MODULES = ["causal_lens"] + [
    f"causal_lens.{m.name}" for m in pkgutil.iter_modules(causal_lens.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
