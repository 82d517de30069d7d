"""Source hygiene of the package, read with the standard library's ast:
no import goes unused, no module-level private name is dead, and every
public name is exported, traced by perfbench or used by the package or
its demos."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "constacodes"
TREES = {path.name: ast.parse(path.read_text(), str(path))
         for path in sorted(PACKAGE.glob("*.py"))}
DEMOS = [ast.parse(path.read_text(), str(path)) for path in sorted((ROOT / "demos").glob("*.py"))]


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


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__.py"}))
def test_every_import_is_used(module):
    tree = TREES[module]
    used = references(tree)
    assert [name for name in imported_names(tree) if name not in used] == []


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
