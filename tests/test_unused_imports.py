"""No module of the package imports a name it never uses, and each name a
module defines at top level, and each member of its classes, is read
somewhere in the package or the benchmark.  No linter runs on this code
base, so these tests stand in for one."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "matchsim"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
# Names kept though neither the package nor the benchmark reads them.
UNREAD_KEPT = {
    # the ground truth of `gadget expand --post-selected`, which the tests
    # compare the expansion with
    "oracle.post_select",
    # counted, though nothing prints it until the evaluation trace reports it
    # (ROADMAP item 1)
    "pfaffian.EvalStats.schur_fallbacks",
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


def _bound(node):
    """The names a function, class or assignment statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def defined_names(source):
    """The functions, classes and constants ``source`` defines at top level,
    and each class's members as ``Class.member``: its methods, properties
    and class-level assignments, dataclass fields included.  Dunder methods,
    which Python calls itself, are left out."""
    names = []
    for node in ast.parse(source).body:
        names += _bound(node)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{name}" for item in node.body for name in _bound(item)
                      if not (name.startswith("__") and name.endswith("__"))]
    return names


def read_attributes(source):
    """Attribute names ``source`` reads, as in ``obj.name``; a store, as in
    ``obj.name += 1``, is no read."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def read_names(source):
    """Names ``source`` reads: loaded names, attributes and imported names."""
    read = read_attributes(source)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def test_read_names_sees_loads_attributes_and_imports():
    source = "from m import a\nb = 1\nc = d.e\nf(g)\n"
    assert read_names(source) == {"a", "d", "e", "f", "g"}
    assert defined_names(source + "def h(): pass\nclass K: pass\n") == ["b", "c", "h", "K"]


def test_the_scan_sees_class_members():
    source = ("class K:\n    x: int = 0\n    y = 1\n    def __init__(self): pass\n"
              "    def f(self): pass\n    @property\n    def g(self): pass\n")
    assert defined_names(source) == ["K", "K.x", "K.y", "K.f", "K.g"]
    assert read_attributes("a.b\nc.d = 1\ne.f += 1\ng(h.i.j)\n") == {"b", "i", "j"}


def test_every_top_level_name_is_read():
    read, attributes = set(), set()
    for path in [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        read |= read_names(path.read_text())
        attributes |= read_attributes(path.read_text())
    unread = set()
    for module in MODULES:
        for name in defined_names((SRC / module).read_text()):
            owner, _, member = name.rpartition(".")
            if member not in (attributes if owner else read):
                unread.add(f"{module[:-3]}.{name}")
    assert unread == UNREAD_KEPT
