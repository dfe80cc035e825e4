"""Every name a package module imports is used in that module.

A stdlib-``ast`` stand-in for a linter's unused-import rule: an import
whose bound name never appears as an ``ast.Name`` is dead code.  The
package ``__init__`` re-exports by name and is left out.
"""

import ast
from pathlib import Path

import pytest

import stablelab

MODULES = sorted(p for p in Path(stablelab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"line {node.lineno}: {bound}")
    return unused


def test_unused_import_is_caught():
    assert unused_imports("import os\nfrom .errors import A, B\nA\n") == [
        "line 1: os", "line 2: B"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
