"""The dependencies declared in pyproject.toml are exactly the third-party
modules imported: the runtime ones by the package, and the ``test`` extra by
the tests beyond those."""

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


def _declared(specs):
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower() for spec in specs}


def _third_party(folder, local=frozenset()):
    imported = set()
    for path in sorted((ROOT / folder).glob("*.py")):
        imported.update(_imported_modules(path))
    return imported - set(sys.stdlib_module_names) - {"latconv"} - local


def _project():
    return tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]


def test_declared_dependencies_match_imports():
    assert _third_party("src/latconv") == _declared(_project()["dependencies"])


def test_test_extra_matches_test_imports():
    # local modules are not dependencies: conftest, and perfbench's spans,
    # which the perfbench tests import from that folder
    project = _project()
    local = {path.stem for folder in ("tests", "perfbench")
             for path in (ROOT / folder).glob("*.py")}
    beyond = _third_party("tests", local) - _declared(project["dependencies"])
    assert beyond == _declared(project["optional-dependencies"]["test"])


def _unused_imports(path):
    """Names a module imports and never reads; ``__future__`` imports are
    directives, not names."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used)


def test_package_modules_use_every_name_they_import():
    # __init__.py imports to re-export
    paths = sorted((ROOT / "src/latconv").glob("*.py"))
    assert [u for p in paths if p.name != "__init__.py" for u in _unused_imports(p)] == []


def _unread_private_names(paths):
    """Module-level private functions, classes and constants defined in
    ``paths`` and read in none of them (as a name, an attribute or an
    import)."""
    defined, read = {}, set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{path.name}:{node.lineno} {name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(where for name, where in defined.items() if name not in read)


def test_package_reads_every_private_name_it_defines():
    assert _unread_private_names(sorted((ROOT / "src/latconv").glob("*.py"))) == []


def _callers(names):
    """``{name: {"module.function", ...}}``: the top-level functions of the
    package that call each of ``names``, by name or as an attribute."""
    callers = {name: set() for name in names}
    for path in sorted((ROOT / "src/latconv").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", getattr(func, "attr", None))
                    if name in callers:
                        callers[name].add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return callers


def test_powers_have_two_producers():
    # every phi^(n) comes from the exact stream or the certified torus, each
    # with its own cap check; the support check keeps its own dense sweep
    assert _callers(("sweep", "power_dense")) == {
        "sweep": {"lattice._direct_stream", "verify.support_periodicity_check"},
        "power_dense": {"lattice.power_torus"}}


def _ledger_uses():
    """``{use: {"module.function", ...}}`` for each reference to the memory
    cap or the held bytes: the method called on it (get, set, reset), or
    ``other`` for any other reference."""
    uses = {}
    for path in sorted((ROOT / "src/latconv").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            called = {id(node.func.value): node.func.attr for node in ast.walk(top)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
            for node in ast.walk(top):
                name = (node.name if isinstance(node, ast.alias)
                        else getattr(node, "id", getattr(node, "attr", None)))
                if name in ("_MEMORY_CAP", "_HELD"):
                    uses.setdefault(called.get(id(node), "other"), set()).add(where)
    return uses


def test_cap_and_held_bytes_have_one_reader():
    # lattice._check_box alone reads the cap and the held bytes to refuse a
    # box; memory_cap and holding alone set them (holding reads the held
    # bytes only to add to them); _config defines them
    assert _ledger_uses() == {
        "get": {"lattice._check_box", "_config.holding"},
        "set": {"_config.memory_cap", "_config.holding"},
        "reset": {"_config.memory_cap"},
        "other": {"_config.<module>"}}
