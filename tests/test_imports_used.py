"""Every name a package module imports is used in that module.

A stdlib-``ast`` stand-in for a linter's unused-import rule: an import
whose bound name never appears as an ``ast.Name`` is dead code.  The
package ``__init__`` re-exports by name, so it has a rule of its own:
each name it imports is used there or listed in ``__all__``, and each
``__all__`` entry is imported, so that no export goes stale.  Likewise a
module-level private function or class that no module of the package
names is dead code, and so is a public one that the package names nowhere
but in its own definition and does not export in ``__all__``.

The knob ledger counts what a caller may leave unset: every parameter
with a default and every annotated class-body assignment with a value,
over the package's modules.  Each is an option with a value someone
chose; ``KNOBS`` pins the total, so that none is added unnoticed.  A
change that moves the count updates ``KNOBS`` and says why in CHANGES.md.
A default that no package call leaves unset is an option only tests use:
each must be left unset by at least one call of its callee's name.
"""

import ast
from pathlib import Path

import pytest

import stablelab

MODULES = sorted(p for p in Path(stablelab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
KNOBS = 59


def _imports(tree):
    """(line, bound name) of every import but those from __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def _used(tree) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = _used(tree)
    return [f"line {line}: {bound}" for line, bound in _imports(tree)
            if bound not in used]


def stale_exports(source: str) -> list:
    """Imports neither used nor in ``__all__``, and ``__all__`` entries
    that nothing imports."""
    tree = ast.parse(source)
    exported = []
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported = list(ast.literal_eval(node.value))
    used = _used(tree)
    imported = {bound: line for line, bound in _imports(tree)}
    return ([f"line {line}: {bound} not used or exported"
             for bound, line in imported.items()
             if bound not in used and bound not in exported]
            + [f"__all__: {name} not imported" for name in exported
               if name not in imported])


def test_unused_import_is_caught():
    assert unused_imports("import os\nfrom .errors import A, B\nA\n") == [
        "line 1: os", "line 2: B"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_stale_export_is_caught():
    source = ("from .a import kept, used, dropped\nused()\n"
              "__all__ = ['kept', 'gone']\n")
    assert stale_exports(source) == ["line 1: dropped not used or exported",
                                     "__all__: gone not imported"]


def test_init_exports_match_imports():
    init = Path(stablelab.__file__)
    assert stale_exports(init.read_text(encoding="utf-8")) == []


def unreferenced_private(sources) -> list:
    """Module-level ``_name`` functions and classes of the given sources
    that none of them references as an ``ast.Name`` or ``ast.Attribute``."""
    trees = [ast.parse(source) for source in sources]
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for tree in trees for node in tree.body
            if isinstance(node, defs) and node.name.startswith("_")
            and not node.name.startswith("__") and node.name not in referenced]


def test_unreferenced_private_is_caught():
    sources = ["def _used():\n    pass\n\ndef _dead():\n    pass\n"
               "class _Gone:\n    pass\n",
               "from .a import x\nx._used()\n"]
    assert unreferenced_private(sources) == ["_dead", "_Gone"]


def test_private_helpers_are_referenced():
    package = Path(stablelab.__file__).parent.glob("*.py")
    assert unreferenced_private(
        [p.read_text(encoding="utf-8") for p in sorted(package)]) == []


def unreached_public(sources, exported) -> list:
    """Module-level public functions and classes of the given sources that
    no other top-level statement of any of them names as an ``ast.Name``
    or ``ast.Attribute``, and that ``exported`` does not list."""
    statements = [node for source in sources for node in ast.parse(source).body]
    names = []
    for node in statements:
        names.append({n.id if isinstance(n, ast.Name) else n.attr
                      for n in ast.walk(node)
                      if isinstance(n, (ast.Name, ast.Attribute))})
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for i, node in enumerate(statements)
            if isinstance(node, defs) and not node.name.startswith("_")
            and node.name not in exported
            and not any(node.name in used
                        for j, used in enumerate(names) if j != i)]


def test_unreached_public_is_caught():
    sources = ["def loop():\n    return loop()\n\n"
               "def called():\n    pass\n\n"
               "def exported():\n    pass\n\n"
               "class Orphan:\n    pass\n",
               "from .a import called\nRUNNERS = {'c': called}\n"
               "def _private():\n    pass\n"]
    assert unreached_public(sources, ["exported"]) == ["loop", "Orphan"]


def test_public_names_are_reached_or_exported():
    package = Path(stablelab.__file__).parent.glob("*.py")
    assert unreached_public(
        [p.read_text(encoding="utf-8") for p in sorted(package)],
        stablelab.__all__) == []


def knobs(source: str) -> int:
    """Parameters with a default, and annotated class-body assignments
    with a value, in ``source``."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def test_knobs_are_counted():
    source = ("def f(a, b=1, *, c=2, d):\n    return lambda x=0: x\n\n"
              "class C:\n    x: int = 0\n    y: int\n    z = 1\n\n"
              "    def g(self, k=None):\n        pass\n")
    assert knobs(source) == 5


def test_the_knob_ledger():
    package = Path(stablelab.__file__).parent.glob("*.py")
    assert sum(knobs(p.read_text(encoding="utf-8")) for p in package) == KNOBS


def _params(fn):
    """(leading self, parameter names in call order, names with a
    default) of a function definition."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    given = set(positional[len(positional) - len(args.defaults):])
    given |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
              if d is not None}
    leading_self = positional[:1] in (["self"], ["cls"])
    return leading_self, positional + [a.arg for a in args.kwonlyargs], given


def _dataclass_fields(cls):
    """(field names in call order, names with a default) of a dataclass."""
    names, given = [], set()
    for s in cls.body:
        if not (isinstance(s, ast.AnnAssign)
                and isinstance(s.target, ast.Name)) or (
                "ClassVar" in ast.unparse(s.annotation)):
            continue
        names.append(s.target.id)
        bare_field = (isinstance(s.value, ast.Call)
                      and getattr(s.value.func, "id", None) == "field"
                      and not {k.arg for k in s.value.keywords}
                      & {"default", "default_factory"})
        if s.value is not None and not bare_field:
            given.add(s.target.id)
    return names, given


def _signatures(tree):
    """(callee name, leading self, parameter names in call order, names
    with a default) of every function, method and dataclass of ``tree``;
    ``__init__`` and a dataclass are called by the name of their class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                yield (node.name, False, *_dataclass_fields(node))
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and f.name == "__init__":
                    yield (node.name, *_params(f))
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.name != "__init__"):
            yield (node.name, *_params(node))


def defaults_no_call_leaves_unset(sources) -> list:
    """``callee:parameter`` of every default that no call in ``sources``
    leaves unset: each call of that callee name (an ``ast.Name`` or
    ``ast.Attribute``) passes it, or there is no call.  A call with ``*``
    or ``**`` arguments is taken to leave every default unset."""
    trees = [ast.parse(source) for source in sources]
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = (node.func.id if isinstance(node.func, ast.Name)
                        else getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)

    def leaves_unset(call, index, param):
        return (any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg is None for k in call.keywords)
                or (len(call.args) <= index
                    and param not in {k.arg for k in call.keywords}))

    found = []
    for tree in trees:
        for name, leading_self, params, given in _signatures(tree):
            params = params[1:] if leading_self else params
            found += [f"{name}:{param}"
                      for index, param in enumerate(params)
                      if param in given and not any(
                          leaves_unset(call, index, param)
                          for call in calls.get(name, ()))]
    return found

def test_default_no_call_leaves_unset_is_caught():
    sources = ["def f(a, b=1, *, c=2):\n    pass\n\n"
               "class K:\n    def m(self, x=0, y=1):\n        pass\n",
               "from dataclasses import dataclass, field\n"
               "f(0, 1)\nf(0, 2, c=3)\nK().m(1)\n\n"
               "@dataclass\nclass D:\n    a: int = field(repr=False)\n"
               "    b: int = 0\n    c: list = field(default_factory=list)\n"
               "D(1, c=[])\n"
               "def g(n=0):\n    pass\n\n"
               "class E:\n    def __init__(self, k=0):\n        pass\n\n"
               "def h(x=0):\n    pass\n\n"
               "E(k=1)\nh(*[1])\n"]
    assert defaults_no_call_leaves_unset(sources) == [
        "f:b", "m:x", "D:c", "g:n", "E:k"]


def test_every_default_is_left_unset_by_a_package_call():
    package = Path(stablelab.__file__).parent.glob("*.py")
    assert defaults_no_call_leaves_unset(
        [p.read_text(encoding="utf-8") for p in sorted(package)]) == []
