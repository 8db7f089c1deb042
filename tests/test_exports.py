"""Every name a wandergen module lists in ``__all__`` resolves on that module,
and names removed from the API stay gone."""

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


@pytest.mark.parametrize("module", ["wandergen", "wandergen.oblique"])
@pytest.mark.parametrize("name", ["OperatorField", "ObliqueSplit", "Family.joined", "FiberField.hermitian_deviation"])
def test_removed_names_do_not_resolve(module, name):
    owner, _, attr = name.rpartition(".")
    target = importlib.import_module(module)
    if owner:
        target = getattr(target, owner)
    assert not hasattr(target, attr)
