"""Every name a package module imports is used in that module.

A stdlib-``ast`` stand-in for a linter's unused-import rule: an import
whose bound name never appears as an ``ast.Name`` is dead code.  The
package ``__init__`` re-exports by name, so it has a rule of its own:
each name it imports is used there or listed in ``__all__``, and each
``__all__`` entry is imported, so that no export goes stale.  Likewise a
module-level private function or class that no module of the package
names is dead code.
"""

import ast
from pathlib import Path

import pytest

import stablelab

MODULES = sorted(p for p in Path(stablelab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
