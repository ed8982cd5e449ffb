"""No module of the package imports a name it never uses.  No linter runs on
this code base, so this test stands in for one."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "matchsim"


def unused_imports(source):
    """Names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_detects_an_unread_name():
    assert unused_imports("import os\nfrom x import a, b as c\nc(os)\n") == ["a"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []
