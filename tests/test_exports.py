"""Every name a module exports exists, so a deleted one cannot linger in
an `__all__` list."""

import importlib
import pkgutil

import pytest

import cliffdunkl

MODULES = ["cliffdunkl"] + [
    f"cliffdunkl.{m.name}" for m in pkgutil.iter_modules(cliffdunkl.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
