"""Every name a wandergen module lists in ``__all__`` resolves on that module."""

import importlib
import pkgutil

import pytest

import wandergen

# __main__ runs the CLI when imported
MODULES = sorted(f"wandergen.{m.name}" for m in pkgutil.iter_modules(wandergen.__path__) if m.name != "__main__")


def test_modules_declare_their_exports():
    declared = {name for name in MODULES if hasattr(importlib.import_module(name), "__all__")}
    assert {f"wandergen.{m}" for m in ("groups", "fibers", "oblique", "oracle", "wandering", "nonabelian")} <= declared


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    assert [attr for attr in exported if not hasattr(module, attr)] == []
