"""No module of the package imports a name it never uses, and each name a
module defines at top level is read somewhere in the package or the
benchmark.  No linter runs on this code base, so these tests stand in for
one."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "matchsim"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
# Top-level names kept though neither the package nor the benchmark reads them.
UNREAD_KEPT = {
    # the ground truth of `gadget expand --post-selected`, which the tests
    # compare the expansion with
    "oracle.post_select",
}


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


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []


def defined_names(source):
    """The functions, classes and constants ``source`` defines at top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def read_names(source):
    """Names ``source`` reads: loaded names, attributes and imported names."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def test_read_names_sees_loads_attributes_and_imports():
    source = "from m import a\nb = 1\nc = d.e\nf(g)\n"
    assert read_names(source) == {"a", "d", "e", "f", "g"}
    assert defined_names(source + "def h(): pass\nclass K: pass\n") == ["b", "c", "h", "K"]


def test_every_top_level_name_is_read():
    read = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        read |= read_names(path.read_text())
    unread = {f"{module[:-3]}.{name}" for module in MODULES
              for name in defined_names((SRC / module).read_text()) if name not in read}
    assert unread == UNREAD_KEPT
