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
"""

import ast
from pathlib import Path

import pytest

import stablelab

MODULES = sorted(p for p in Path(stablelab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
KNOBS = 82


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
