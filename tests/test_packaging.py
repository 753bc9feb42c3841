"""The runtime dependencies declared in pyproject.toml are exactly the
third-party modules that the package imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def _imported_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_declared_dependencies_match_imports():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
                for spec in project["project"]["dependencies"]}
    imported = set()
    for path in sorted((ROOT / "src" / "latconv").glob("*.py")):
        imported.update(_imported_modules(path))
    third_party = imported - set(sys.stdlib_module_names) - {"latconv"}
    assert third_party == declared
