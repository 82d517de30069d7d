"""Source hygiene of the package, read with the standard library's ast:
no import goes unused in the package, its tests or its demos, no
module-level private name is dead, every public name is exported,
traced by perfbench or used by the package or its demos (a method name
that several classes define, on a receiver of its own class), and no
module-global cache grows without bound.  Importing the package and its
CLI loads none of the standard library's heavy introspection modules."""

import ast
import os
import subprocess
import sys
from collections import Counter
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


# A method name defined on more than one class (a namesake) counts as
# used only where the receiver's class can be read from the code: self
# in the class's own methods, a constructor or function call, a
# parameter, a variable bound to one of these, a class attribute, or an
# element of a container annotated with the class.
CLASSES = {node.name: node for tree in TREES.values() for node in ast.walk(tree)
           if isinstance(node, ast.ClassDef)}
RETURNS = {node.name: node.returns for tree in TREES.values() for node in tree.body
           if isinstance(node, ast.FunctionDef) and node.returns}
FIELDS = {(cls, node.target.id): node.annotation for cls, c in CLASSES.items()
          for node in c.body if isinstance(node, ast.AnnAssign)}


def class_of(ann):
    """The package class an annotation names: C, mod.C, "C" or C | None."""
    if isinstance(ann, ast.BinOp):
        return class_of(ann.left) or class_of(ann.right)
    name = ann.value if isinstance(ann, ast.Constant) else called_name(ann)
    return name if name in CLASSES else None


def element_of(ann):
    """The element annotation of list[C], tuple[C, ...], Iterator[C] and the like."""
    if not isinstance(ann, ast.Subscript):
        return None
    return ann.slice.elts[0] if isinstance(ann.slice, ast.Tuple) else ann.slice


def annotation_of(expr, env):
    """The annotation of an expression's value, where the code gives it."""
    if isinstance(expr, ast.Name):
        return env.get(expr.id)
    if isinstance(expr, ast.Call):
        name = called_name(expr.func)
        return ast.Name(name) if name in CLASSES else RETURNS.get(name)
    if isinstance(expr, ast.Attribute):
        return FIELDS.get((class_of(annotation_of(expr.value, env)), expr.attr))
    return None


def scopes(tree):
    """(statements, class) of the module's top level and of each function
    and method; a nested function shares its parent's scope."""
    yield [n for n in tree.body if not isinstance(n, (ast.FunctionDef, ast.ClassDef))], None
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield [node], None
        elif isinstance(node, ast.ClassDef):
            yield from (([fn], node.name) for fn in node.body if isinstance(fn, ast.FunctionDef))


def class_uses(tree):
    """(class, attribute) of every attribute read whose receiver's class
    the code gives."""
    out = set()
    for statements, cls in scopes(tree):
        nodes = [n for s in statements for n in ast.walk(s)]
        env = {"self": ast.Name(cls)} if cls else {}
        for _ in range(2):  # a binding may read one bound later in the walk
            for node in nodes:
                if isinstance(node, ast.arg) and node.annotation:
                    env[node.arg] = node.annotation
                elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                    env[node.targets[0].id] = annotation_of(node.value, env)
                elif (isinstance(node, (ast.For, ast.comprehension))
                      and isinstance(node.target, ast.Name)):
                    env[node.target.id] = element_of(annotation_of(node.iter, env))
        out.update((class_of(annotation_of(n.value, env)), n.attr)
                   for n in nodes if isinstance(n, ast.Attribute))
    return out


def test_every_public_name_is_used():
    exported = set(literal(TREES["__init__.py"], "__all__"))
    tracer = ROOT / "perfbench" / "tracer.py"
    traced = {(module, qualname) for _, module, qualname, _ in
              literal(ast.parse(tracer.read_text(), str(tracer)), "TARGETS")}
    trees = [*TREES.values(), *DEMOS]
    used = set().union(*map(references, trees))
    tied = set().union(*map(class_uses, trees))
    definitions = [(module, qualname, name) for module, tree in TREES.items()
                   if module != "__init__.py" for qualname, name in public_definitions(tree.body)]
    owners = Counter(name for _, qualname, name in definitions if "." in qualname)

    def is_used(qualname, name):
        if owners[name] > 1:  # a namesake: its own class must be read
            return (qualname.split(".")[-2], name) in tied
        return name in used

    unused = [(module, qualname) for module, qualname, name in definitions
              if name not in exported and not is_used(qualname, name)
              and (module.removesuffix(".py"), qualname) not in traced]
    assert unused == []


CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set", "WeakKeyDictionary", "WeakValueDictionary",
                   "defaultdict", "OrderedDict", "Counter", "deque"}
GROWERS = {"append", "add", "update", "setdefault", "extend"}


def module_containers(tree):
    """The module-level names bound to a container, each with its kind:
    "display" for a display or comprehension, else the name called, one
    of CONTAINER_CALLS, bare or dotted."""
    out = {}
    for node in tree.body:
        value = getattr(node, "value", None)
        if isinstance(value, CONTAINERS):
            kind = "display"
        elif isinstance(value, ast.Call) and called_name(value.func) in CONTAINER_CALLS:
            kind = called_name(value.func)
        else:
            continue
        out.update(dict.fromkeys(bound_names(node), kind))
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


def unbounded_caches(tree):
    """(function, name) of every unbounded cache in a module: a write
    inside a function to a module-level container other than a
    WeakKeyDictionary, whose entries die with their keys, and an
    unbounded memo on a function with parameters, as (function, "cache")."""
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
            if isinstance(target, ast.Name) and containers.get(target.id) not in (
                    None, "WeakKeyDictionary"):
                found.append((getattr(fn, "name", "lambda"), target.id))
    return found


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_unbounded_module_caches(module):
    # A module-level container is never written inside a function, unless
    # it is a WeakKeyDictionary, and an unbounded memo decorates only a
    # function without parameters, which holds one entry.
    assert unbounded_caches(TREES[module]) == []


def test_cache_check_sees_every_container_kind():
    # Each kind of module-level container, written inside a function, is
    # caught, however it was built; a WeakKeyDictionary alone may be written.
    kinds = ["{}", "[]", "{1}", "{k: 0 for k in ()}", "dict()", "set()",
             "weakref.WeakKeyDictionary()", "weakref.WeakValueDictionary()",
             "collections.defaultdict(list)", "OrderedDict()", "Counter()", "deque()"]
    source = "".join(f"C{i} = {kind}\n" for i, kind in enumerate(kinds))
    source += "def f(key):\n" + "".join(f"    C{i}[key] = 1\n" for i in range(len(kinds)))
    source += "def g(key):\n    C8.append(key)\n"
    found = unbounded_caches(ast.parse(source))
    assert found == [("f", f"C{i}") for i in range(len(kinds)) if i != 6] + [("g", "C8")]
