"""Source hygiene of the package, read from its syntax trees.

No module of src/hypercourant imports a name it never uses, and no
module-level private function or class (a name with one leading
underscore) goes unreferenced across the package.  The package's
__init__.py re-exports what it imports, so its imports are exempt, as are
`from __future__` imports.  A public module-level function or class is
used by the package, documented (README.md or pyproject.toml names it) or
traced by the benchmark (perfbench/spans.py's TARGETS); a re-export in
__init__.py is not a use.  Every module-level function and every method
runs: `examples` on the three built-in documents, `check` on each of them
(trials 1, degree 1), `verify-axioms` and README's `theorem_report` call,
recorded in a fresh interpreter by a global trace function, reach them all;
dunder methods, errors.py and the full attribute paths in TARGETS are
exempt.  README's "Library use" snippet runs as printed,
and `from hypercourant import *` binds no submodule.  Only scalar.py names
the sharing scope's context variable, SHARING, and only the three loops
that own a scope open one: every call of sharing is the item of a with
statement in connection_pass, _law_checks or concomitant_statuses, and
passes the scope's one rule and nothing more.  Every call of shared passes
a module-level name or a Class.method attribute as its first argument,
never a lambda, a call or a local, so its memo can hit and a miss calls a
patched global as it then is.  Every import sits at module
level, none in a function or class body, so a module's dependencies are
read from its head and paid once, at import.  The package carries no switch that only tests
turn on: no function parameter named with a leading underscore and no
command-line option hidden from --help; a test that needs a mutant patches
it in.  Importing the package, as every `hypercourant` command does first,
loads none of the code-introspection modules, and a `check` loads neither
hashlib's OpenSSL backend (_hashlib) nor ssl wherever the interpreter has
its builtin sha256 (_sha2 or _sha256), which takes the input digest.  No
NamedTuple record stores a verdict: it has no field named passed,
vanishes, status, verdict, consistency or version, and computes the verdict
from its witnesses and flags instead.  The command line neither builds a
report nor checks a bound: cli.py calls neither RunReport nor SuiteReport
and compares nothing with a MAX_* bound, as runfile checks both commands'
input and builds both reports.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import hypercourant
from hypercourant.runfile import parse_structure_text
from hypercourant.structures import EXAMPLE_NAMES, structure_file

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hypercourant"
MODULES = sorted(PACKAGE.glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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
    return sorted(
        {
            node.lineno
            for scope in ast.walk(tree)
            if isinstance(scope, DEFINITIONS)
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
        if isinstance(node, DEFINITIONS)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert not orphans, f"unreferenced private definitions: {orphans}"


def _targets(spans_source: str) -> list:
    """The (module, attribute path) pairs of the benchmark's TARGETS."""
    for node in ast.parse(spans_source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return list(ast.literal_eval(node.value).values())
    raise AssertionError("no TARGETS assignment")


def _traced_names(spans_source: str) -> set:
    """Module-level names the benchmark's tracer wraps or reaches into: the
    first part of each attribute path in TARGETS."""
    return {path.split(".")[0] for _, path in _targets(spans_source)}


def _test_only_switches(tree: ast.Module) -> list:
    """(line, name) of each function parameter whose name starts with an
    underscore and of each add_argument(..., help=argparse.SUPPRESS)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [p for p in (args.vararg, args.kwarg) if p]
            found += [(p.lineno, p.arg) for p in params if p.arg.startswith("_")]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
            if any(k.arg == "help" and ast.unparse(k.value).endswith("SUPPRESS") for k in node.keywords):
                found.append((node.lineno, "/".join(ast.literal_eval(a) for a in node.args)))
    return sorted(found)


def test_no_test_only_switch():
    found = [(path.name, *hit) for path in MODULES for hit in _test_only_switches(_tree(path))]
    assert not found, f"switches only a test would set: {found}"


def test_catches_a_test_only_switch():
    tree = ast.parse(
        "import argparse\n\ndef f(x, *, _hook=False):\n    return lambda _y: x\n\n"
        "p.add_argument('--hook', action='store_true', help=argparse.SUPPRESS)\n"
        "p.add_argument('--shown', help='shown')\n"
    )
    assert _test_only_switches(tree) == [(3, "_hook"), (4, "_y"), (6, "--hook")]


def _unused_public(trees: dict, documented: str, traced: set) -> list:
    """(module, name) of each public module-level definition that no module
    but __init__.py references, `documented` does not name and `traced`
    does not hold."""
    used = set().union(*[_referenced_names(t) for n, t in trees.items() if n != "__init__.py"])
    kept = used | set(re.findall(r"\w+", documented)) | traced
    return [
        (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_") and node.name not in kept
    ]


def test_no_unused_public_definition():
    trees = {path.name: _tree(path) for path in MODULES}
    documented = "".join((ROOT / doc).read_text(encoding="utf-8") for doc in ("README.md", "pyproject.toml"))
    traced = _traced_names((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    unused = _unused_public(trees, documented, traced)
    assert not unused, f"public definitions nothing uses, documents or traces: {unused}"


def test_catches_an_unused_public_definition():
    trees = {
        "__init__.py": ast.parse("from .a import Lone, lone\n"),
        "a.py": ast.parse(
            "def used(): pass\ndef lone(): pass\ndef shown(): pass\ndef timed(): pass\n"
            "class Lone: pass\nclass Timed: pass\nx = used()\n"
        ),
    }
    spans = 'TARGETS = {"a.timed": ("pkg.a", "timed"), "a.m": ("pkg.a", "Timed.m")}\n'
    assert _traced_names(spans) == {"timed", "Timed"}
    unused = _unused_public(trees, "call `shown()`", _traced_names(spans))
    assert unused == [("a.py", "lone"), ("a.py", "Lone")]


# The commands and the library call a test of the run rule makes, in a fresh
# interpreter under a global trace function that records each code object
# entered and traces no line of it.  It prints the (file, first line) pairs.
_RUN = r"""
import json, os, sys, tempfile

from hypercourant import theorem_report
from hypercourant.cli import main
from hypercourant.structures import EXAMPLE_NAMES, example

ran = set()


def record(frame, event, arg):
    ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
    return None


sys.settrace(record)
with tempfile.TemporaryDirectory() as tmp:
    for name in EXAMPLE_NAMES:
        path = os.path.join(tmp, name + ".json")
        main(["examples", name, "--emit", path])
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["options"].update(trials=1, degree=1)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        form = ["--format", "text", "--timings"] if name == "flat-quaternionic" else ["--format", "json"]
        main(["check", path, *form, "--report", path + ".out"])
    main(["verify-axioms", "--dim", "2", "--trials", "1", "--degree", "1", "--report", os.path.join(tmp, "axioms")])
theorem_report(example("flat-quaternionic"), trials=1)
sys.settrace(None)
print(json.dumps(sorted(ran)))
"""


def _first_line(node) -> int:
    """The line a def's code object starts on: its first decorator's, if any."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _members(trees: dict) -> dict:
    """{(module, first line): name} of each module-level function and each
    method of a module-level class; a method is named Class.method."""
    out = {}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, functions):
                out[module, _first_line(node)] = node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, functions):
                        out[module, _first_line(item)] = f"{node.name}.{item.name}"
    return out


def _unrun(trees: dict, ran: set, exempt: set) -> list:
    """(module, name) of each member that never ran; dunder methods and the
    (module, name) pairs in `exempt` are not asked to."""
    return sorted(
        (module, name)
        for (module, line), name in _members(trees).items()
        if (module, line) not in ran
        and (module, name) not in exempt
        and not re.search(r"(^|\.)__\w+__$", name)
    )


def _traced_paths(spans_source: str) -> set:
    """(module file, full attribute path) of each TARGETS entry."""
    return {(module.rsplit(".", 1)[-1] + ".py", path) for module, path in _targets(spans_source)}


def test_every_member_runs():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", _RUN], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    ran = {(Path(f).name, line) for f, line in json.loads(done.stdout) if Path(f).resolve().parent == PACKAGE}
    trees = {path.name: _tree(path) for path in MODULES if path.name != "errors.py"}
    traced = _traced_paths((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    unrun = _unrun(trees, ran, traced)
    assert not unrun, f"members no command or documented library call runs: {unrun}"


def test_catches_a_member_that_never_runs():
    trees = {
        "a.py": ast.parse(
            "def ran(): pass\ndef idle(): pass\ndef timed(): pass\n"
            "class C:\n    def __eq__(self, o): pass\n    @property\n    def n(self): pass\n"
            "    @classmethod\n    def make(cls): pass\n    def timed(self): pass\n"
        ),
    }
    spans = 'TARGETS = {"a.t": ("pkg.a", "C.timed")}\n'
    assert _traced_paths(spans) == {("a.py", "C.timed")}
    # C.n's code starts at its decorator, line 6; a traced method exempts
    # neither its class nor a function of the same name
    assert _unrun(trees, {("a.py", 1), ("a.py", 6)}, _traced_paths(spans)) == [
        ("a.py", "C.make"), ("a.py", "idle"), ("a.py", "timed")
    ]


def test_star_import_binds_no_submodule():
    modules = [n for n in hypercourant.__all__ if isinstance(getattr(hypercourant, n), ModuleType)]
    assert not modules, f"submodules in __all__: {modules}"


def test_readme_library_snippet_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"^## Library use\n+```python\n(.*?)^```", readme, re.S | re.M).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, "README.md", "exec"), {})
    assert out.getvalue() == "hypercomplex\n"


def test_only_scalar_names_the_sharing_variable():
    # every other module shares values through scalar.shared and scalar.sharing
    naming = [
        path.name
        for path in MODULES
        if path.name != "scalar.py" and "SHARING" in _referenced_names(_tree(path))
    ]
    assert not naming, f"modules naming SHARING: {naming}"


SCOPE_OWNERS = ("connection_pass", "_law_checks", "concomitant_statuses")


def _stray_scopes(tree: ast.Module) -> list:
    """(line, fault) of each call of sharing that is not the item of a with
    statement in the body of one of SCOPE_OWNERS, and of each that passes
    more than one argument."""
    owned, calls = set(), []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        if isinstance(node, (ast.With, ast.AsyncWith)) and function in SCOPE_OWNERS:
            owned.update(id(item.context_expr) for item in node.items)
        if isinstance(node, ast.Call):
            if "sharing" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                calls.append(node)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    found = [(c.lineno, "opened outside an owning loop") for c in calls if id(c) not in owned]
    found += [(c.lineno, "more than one argument") for c in calls if len(c.args) + len(c.keywords) > 1]
    return sorted(found)


def test_only_the_owning_loops_open_a_scope():
    found = [(path.name, *hit) for path in MODULES for hit in _stray_scopes(_tree(path))]
    assert not found, f"sharing scopes opened elsewhere or with a second argument: {found}"


def test_catches_a_stray_scope():
    tree = ast.parse(
        "def concomitant(x):\n    with sharing(keep, reuse=True):\n        return x\n\n"
        "def connection_pass(x):\n    with sharing(keep) as s, open(x):\n        f = lambda: sharing(keep)\n"
        "    return scalar.sharing(keep, True)\n"
    )
    assert _stray_scopes(tree) == [
        (2, "more than one argument"),
        (2, "opened outside an owning loop"),
        (7, "opened outside an owning loop"),
        (8, "more than one argument"),
        (8, "opened outside an owning loop"),
    ]


def _module_level_names(tree: ast.Module) -> set:
    """Names a module binds at its top level: imports, definitions and
    assignments."""
    names = {name for name, _ in _imported(tree)}
    names |= {node.name for node in tree.body if isinstance(node, DEFINITIONS)}
    assigned = [t for node in tree.body if isinstance(node, ast.Assign) for t in node.targets]
    return names | {t.id for t in assigned if isinstance(t, ast.Name)}


def _stray_memo_keys(tree: ast.Module) -> list:
    """(line, first argument) of each call of shared whose first argument is
    not a module-level name, or an attribute of one, that no enclosing
    function binds locally."""
    module, found = _module_level_names(tree), []

    def visit(node, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [p for p in (args.vararg, args.kwarg) if p]
            stored = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            local = local | stored | {p.arg for p in params}
        if isinstance(node, ast.Call) and "shared" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            key = node.args[0] if node.args else None
            base = key.value if isinstance(key, ast.Attribute) else key
            if not (isinstance(base, ast.Name) and base.id in module and base.id not in local):
                found.append((node.lineno, ast.unparse(key) if key else ""))
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, frozenset())
    return found


def test_memo_keys_are_module_level_functions():
    found = [(path.name, *hit) for path in MODULES for hit in _stray_memo_keys(_tree(path))]
    assert not found, f"shared called with a key function that is not module-level: {found}"


def test_catches_a_stray_memo_key():
    tree = ast.parse(
        "from .courant import dorfman\n\nclass C:\n    def m(self): pass\n\ndef _f(a): pass\n\n"
        "def ok(x):\n    return shared(_f, x), shared(dorfman, x, x), scalar.shared(C.m, x)\n\n"
        "def bad(x, fn):\n    g = _f\n    a = shared(lambda y: y, x), shared(make(), x), shared(fn, x)\n"
        "    return shared(g, x), shared(x.m, x), shared(C.m.n, x), shared()\n"
    )
    assert _stray_memo_keys(tree) == [
        (13, "lambda y: y"), (13, "make()"), (13, "fn"),
        (14, "g"), (14, "x.m"), (14, "C.m.n"), (14, ""),
    ]


def test_import_loads_no_introspection_module():
    # every command starts a fresh interpreter; dataclasses would pull in
    # inspect, ast and dis and compile generated methods at each start
    heavy = ("dataclasses", "inspect", "ast", "dis")
    code = f"import sys, hypercourant, hypercourant.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# A check of a built-in document at trials 1, degree 1, in a fresh
# interpreter; it prints which of the OpenSSL modules it loaded.
_CHECK = r"""
import json, os, sys, tempfile

from hypercourant.cli import main

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "flat.json")
    main(["examples", "flat-quaternionic", "--emit", path])
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["options"].update(trials=1, degree=1)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert main(["check", path, "--report", path + ".out"]) == 0
print(json.dumps([m for m in ("_hashlib", "ssl") if m in sys.modules]))
"""


@pytest.mark.skipif(
    not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
    reason="the interpreter has no builtin sha256, so the digest needs hashlib",
)
def test_check_loads_no_openssl():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", _CHECK], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_input_digest_is_the_sha256_of_the_document(name):
    text = json.dumps(structure_file(name), indent=2, sort_keys=True) + "\n"
    assert parse_structure_text(text).digest == "sha256:" + hashlib.sha256(text.encode()).hexdigest()


VERDICTS = ("passed", "vanishes", "status", "verdict", "consistency", "version")


def _stored_verdicts(tree: ast.Module) -> list:
    """(line, class, field) of each field of a NamedTuple class named like
    one of VERDICTS."""
    return [
        (item.lineno, node.name, item.target.id)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(base).rsplit(".", 1)[-1] == "NamedTuple" for base in node.bases)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) and item.target.id in VERDICTS
    ]


def test_records_store_no_verdict():
    found = [(path.name, *hit) for path in MODULES for hit in _stored_verdicts(_tree(path))]
    assert not found, f"records that store a verdict: {found}"


def test_catches_a_stored_verdict():
    # a computed verdict, a class constant and a plain class's field are fine
    tree = ast.parse(
        "class R(NamedTuple):\n    witness: object = None\n    passed: bool = True\n    version = '1'\n"
        "    @property\n    def status(self): return 'pass'\n\n"
        "class S(typing.NamedTuple):\n    verdict: str\n\n"
        "class Plain:\n    status: str = 'pass'\n"
    )
    assert _stored_verdicts(tree) == [(3, "R", "passed"), (9, "S", "verdict")]


REPORT_RECORDS = ("RunReport", "SuiteReport")


def _cli_policy(tree: ast.Module) -> list:
    """(line, fault) of each call of a report record and each comparison
    with a MAX_* bound."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in REPORT_RECORDS:
                found.append((node.lineno, f"builds {name}"))
        elif isinstance(node, ast.Compare):
            names = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}
            found += [(node.lineno, f"compares with {b}") for b in sorted(names - {None}) if b.startswith("MAX_")]
    return sorted(found)


def test_cli_builds_no_report_and_checks_no_bound():
    found = _cli_policy(_tree(PACKAGE / "cli.py"))
    assert not found, f"cli.py does runfile's work: {found}"


def test_catches_a_report_or_bound_in_the_cli():
    # a bound in a help string and a call of runfile's entry point are fine
    tree = ast.parse(
        "def ok(a):\n    print(f'1..{MAX_DIM}')\n    return run_axioms(a.dim)\n\n"
        "def bad(a):\n    if not 1 <= a.dim <= runfile.MAX_DIM or a.t > MAX_T:\n        return 2\n"
        "    return runfile.RunReport('-', {}, [SuiteReport('axioms', [])])\n"
    )
    assert _cli_policy(tree) == [
        (6, "compares with MAX_DIM"),
        (6, "compares with MAX_T"),
        (8, "builds RunReport"),
        (8, "builds SuiteReport"),
    ]


def test_catches_an_orphan_and_an_unused_import():
    tree = ast.parse("import os\nfrom math import gcd\n\ndef _lone():\n    return gcd(1, 2)\n")
    assert [n for n, _ in _imported(tree) if n not in _loaded_names(tree)] == ["os"]
    assert "_lone" not in _referenced_names(tree)


def test_catches_a_function_local_import():
    tree = ast.parse("import os\n\ndef f():\n    from math import gcd\n    return gcd\n\nclass C:\n    import sys\n")
    assert _local_imports(tree) == [4, 8]
