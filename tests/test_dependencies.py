"""numpy is the only runtime dependency outside the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "caccsim"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "caccsim"}


def imported_packages(path: Path) -> set[str]:
    """Top-level names of the absolute imports anywhere in a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_imports_only_the_standard_library_and_numpy(path):
    assert imported_packages(path) - ALLOWED == set()


def test_import_scan_sees_packages_outside_the_allowed_set(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os.path\nfrom . import sibling\nfrom scipy import linalg\n"
        "def f():\n    import pandas as pd\n",
        encoding="utf-8",
    )
    assert imported_packages(module) - ALLOWED == {"scipy", "pandas"}
