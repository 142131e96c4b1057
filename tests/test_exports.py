"""Every name a module exports exists, so a deleted one cannot linger in
an `__all__` list, and every third-party module the package imports is a
declared dependency."""

import ast
import importlib
import pathlib
import pkgutil
import re
import sys

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


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    repo = pathlib.Path(__file__).resolve().parents[1]
    imported = set()
    for source in (repo / "src" / "cliffdunkl").glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"cliffdunkl"}
    with open(repo / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}
    assert third_party, "the package imports no third-party module at all"
    assert third_party <= declared, f"imported but not declared: {third_party - declared}"
