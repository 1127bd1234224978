"""Every caccsim module exports only names it defines, the package root
imports nothing (names are imported from their modules), and every exported
name is used by the program itself: src/, demos/ or perfbench/, not only by
tests."""

from __future__ import annotations

import ast
import functools
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "caccsim"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
# The program's own files; perfbench's tests are tests.
PROGRAM = sorted(
    path
    for folder in ("src", "demos", "perfbench")
    for path in (ROOT / folder).rglob("*.py")
    if not path.name.startswith("test_")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"caccsim.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_root_imports_nothing():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert imports == []


@functools.cache
def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """A module's top-level statements by the names they define."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return defs


def read_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names that tree reads, bare or as an attribute, outside skip."""
    skipped = set(map(id, ast.walk(skip))) if skip else set()
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load)
        and id(node) not in skipped
    }


def unused_exports(module: Path, program) -> list[str]:
    """Names of module's __all__ that no file of program reads outside the
    name's own top-level definition."""
    tree = parse(module)
    defs = definitions(tree)
    elsewhere = set().union(*(read_names(parse(p)) for p in program if p != module))
    return [
        name
        for name in ast.literal_eval(defs["__all__"].value)
        if name not in elsewhere and name not in read_names(tree, defs.get(name))
    ]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_has_a_use_outside_tests(name):
    assert unused_exports(SRC / f"{name}.py", PROGRAM) == []


def test_export_scan_sees_a_name_only_its_definition_reads(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        '__all__ = ["used", "unused", "LIMIT"]\n'
        "LIMIT = 3\n"
        "def used():\n    return LIMIT\n"
        "def unused(n):\n    return unused(n - 1) if n else used\n",
        encoding="utf-8",
    )
    user = tmp_path / "user.py"
    user.write_text("import module\nmodule.used()\n", encoding="utf-8")
    assert unused_exports(module, [module, user]) == ["unused"]
    assert unused_exports(module, [module]) == ["unused"]
