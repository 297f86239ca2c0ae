"""Source hygiene of the package, read from its syntax trees.

No module of src/hypercourant imports a name it never uses, and no
module-level private function or class (a name with one leading
underscore) goes unreferenced across the package.  The package's
__init__.py re-exports what it imports, so its imports are exempt, as are
`from __future__` imports.  Only scalar.py names the sharing scope's
context variable, SHARING.  Every import sits at module level, none in a
function or class body, so a module's dependencies are read from its head
and paid once, at import.  Importing the package, as every `hypercourant`
command does first, loads none of the code-introspection modules.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hypercourant"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _loaded_names(tree: ast.Module) -> set:
    """Names a module loads; a name in a string annotation does not count."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _referenced_names(tree: ast.Module) -> set:
    """Loaded names, attribute names and names imported from elsewhere in
    the package, which is how one module references another's definitions."""
    used = _loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level:
            used |= {a.name for a in node.names}
    return used


def _imported(tree: ast.Module) -> list:
    """(bound name, line) for every import of a module, `from __future__`
    excepted."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def _local_imports(tree: ast.Module) -> list:
    """Lines of the imports inside a function or class body."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        {
            node.lineno
            for scope in ast.walk(tree)
            if isinstance(scope, scopes)
            for node in ast.walk(scope)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = _tree(path)
    loaded = _loaded_names(tree)
    unused = [(name, line) for name, line in _imported(tree) if name not in loaded]
    assert not unused, f"{path.name}: unused imports {unused}"


def test_no_function_local_import():
    local = [(path.name, line) for path in MODULES for line in _local_imports(_tree(path))]
    assert not local, f"imports inside a function or class body: {local}"


def test_no_orphan_private_definition():
    trees = {path.name: _tree(path) for path in MODULES}
    used = set().union(*[_referenced_names(tree) for tree in trees.values()])
    orphans = [
        (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert not orphans, f"unreferenced private definitions: {orphans}"


def test_only_scalar_names_the_sharing_variable():
    # every other module shares values through scalar.shared and scalar.sharing
    naming = [
        path.name
        for path in MODULES
        if path.name != "scalar.py" and "SHARING" in _referenced_names(_tree(path))
    ]
    assert not naming, f"modules naming SHARING: {naming}"


def test_import_loads_no_introspection_module():
    # every command starts a fresh interpreter; dataclasses would pull in
    # inspect, ast and dis and compile generated methods at each start
    heavy = ("dataclasses", "inspect", "ast", "dis")
    code = f"import sys, hypercourant, hypercourant.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_catches_an_orphan_and_an_unused_import():
    tree = ast.parse("import os\nfrom math import gcd\n\ndef _lone():\n    return gcd(1, 2)\n")
    assert [n for n, _ in _imported(tree) if n not in _loaded_names(tree)] == ["os"]
    assert "_lone" not in _referenced_names(tree)


def test_catches_a_function_local_import():
    tree = ast.parse("import os\n\ndef f():\n    from math import gcd\n    return gcd\n\nclass C:\n    import sys\n")
    assert _local_imports(tree) == [4, 8]
