"""Every name a module exports exists, so a deleted one cannot linger in
an `__all__` list; every third-party module the package imports is a
declared dependency; no module imports a name it never uses, and every
private module-level function or class has a caller in the package, so
deleted code leaves neither imports nor helpers behind."""

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
SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "cliffdunkl").glob("[!_]*.py"))


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


@pytest.mark.parametrize("source", SOURCES, ids=lambda s: s.stem)
def test_no_module_imports_a_name_it_never_uses(source):
    tree = ast.parse(source.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, f"{source.name} imports but never uses {sorted(imported - used)}"


def test_every_private_helper_is_used_in_the_package():
    # a reference inside the helper's own definition (recursion) does not count
    defined, used = {}, set()
    for source in SOURCES[0].parent.glob("*.py"):
        for top in ast.parse(source.read_text()).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and own.startswith("_"):
                defined[own] = source.name
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                    used.add(name)
    unused = sorted(f"{module}:{name}" for name, module in defined.items() if name not in used)
    assert defined, "the scan found no private helper at all"
    assert not unused, f"private helpers nothing in the package uses: {unused}"
