"""Source hygiene of the package, read with the standard library's ast:
no import goes unused in the package, its tests or its demos, no
module-level private name is dead, every public name is exported,
traced by perfbench or used by the package or its demos, and no
module-global cache grows without bound.  Importing the package and its
CLI loads none of the standard library's heavy introspection modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "constacodes"
TREES = {path.name: ast.parse(path.read_text(), str(path))
         for path in sorted(PACKAGE.glob("*.py"))}
# The tests and demos, by their path from the repo root.
SCRIPTS = {f"{folder}/{path.name}": ast.parse(path.read_text(), str(path))
           for folder in ("tests", "demos") for path in sorted((ROOT / folder).glob("*.py"))}
DEMOS = [tree for name, tree in SCRIPTS.items() if name.startswith("demos/")]


def literal(tree, name):
    """The value of a module-level assignment to name, a literal."""
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets))


def references(tree):
    """Every name a module reads: bare names and attribute names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def imported_names(tree):
    """The names every import statement of a module binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def bound_names(node):
    """The names a function, class or assignment statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def private_definitions(tree):
    """The _private names a module binds at its top level."""
    for node in tree.body:
        yield from (n for n in bound_names(node) if n.startswith("_") and not n.startswith("__"))


def public_definitions(body, prefix=""):
    """(qualified name, name) of every public function, class, method
    and assignment in a module or class body."""
    for node in body:
        yield from ((prefix + n, n) for n in bound_names(node) if not n.startswith("_"))
        if isinstance(node, ast.ClassDef):
            yield from public_definitions(node.body, prefix + node.name + ".")


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__.py"}) + sorted(SCRIPTS))
def test_every_import_is_used(module):
    tree = (TREES | SCRIPTS)[module]
    used = references(tree)
    assert [name for name in imported_names(tree) if name not in used] == []


# dataclasses pulls in inspect, which pulls in ast, dis and tokenize:
# about a quarter of the package's cold import, paid by every CLI run.
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_import_loads_no_introspection_modules():
    # -S keeps site (and whatever .pth files it runs) out of the count.
    code = ("import sys, constacodes, constacodes.cli; "
            f"print(sorted(set({HEAVY_MODULES!r}) & set(sys.modules)))")
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    assert res.stdout.strip() == "[]"


def test_every_private_name_is_referenced():
    used = set().union(*map(references, TREES.values()))
    dead = [(module, name) for module, tree in TREES.items()
            for name in private_definitions(tree) if name not in used]
    assert dead == []


def test_every_public_name_is_used():
    exported = set(literal(TREES["__init__.py"], "__all__"))
    tracer = ROOT / "perfbench" / "tracer.py"
    traced = {(module, qualname) for _, module, qualname, _ in
              literal(ast.parse(tracer.read_text(), str(tracer)), "TARGETS")}
    used = set().union(*map(references, [*TREES.values(), *DEMOS]))
    unused = [(module, qualname) for module, tree in TREES.items() if module != "__init__.py"
              for qualname, name in public_definitions(tree.body)
              if name not in exported and name not in used
              and (module.removesuffix(".py"), qualname) not in traced]
    assert unused == []


CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
GROWERS = {"append", "add", "update", "setdefault", "extend"}


def module_containers(tree):
    """The module-level names bound to a dict, list or set: a display, a
    comprehension, or a dict(), list() or set() call."""
    out = set()
    for node in tree.body:
        value = getattr(node, "value", None)
        if isinstance(value, CONTAINERS) or (
                isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in ("dict", "list", "set")):
            out.update(bound_names(node))
    return out


def called_name(node):
    """The last name of a bare or dotted reference: cache, lru_cache."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def unbounded_cache(decorator):
    """Whether a decorator is functools.cache or lru_cache(maxsize=None)."""
    if not isinstance(decorator, ast.Call):
        return called_name(decorator) == "cache"
    sizes = decorator.args[:1] + [kw.value for kw in decorator.keywords if kw.arg == "maxsize"]
    return called_name(decorator.func) == "lru_cache" and any(
        isinstance(s, ast.Constant) and s.value is None for s in sizes)


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_unbounded_module_caches(module):
    # A module-level container is never written inside a function, and an
    # unbounded memo decorates only a function without parameters, which
    # holds one entry.
    tree = TREES[module]
    containers = module_containers(tree)
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        if any(map(unbounded_cache, getattr(fn, "decorator_list", []))) and (
                a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg):
            found.append((fn.name, "cache"))
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                target = node.value
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in GROWERS):
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in containers:
                found.append((getattr(fn, "name", "lambda"), target.id))
    assert found == []
