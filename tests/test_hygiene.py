"""Every module of the package uses each name it imports, and every
definition of the package has a caller.

Names listed in a module's ``__all__`` count as used (re-exports).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shlie3"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    src = "from .linalg import Matrix, vadd\nimport itertools\n\ndef f(): return vadd\n"
    assert unused_imports(src) == ["Matrix (line 1)", "itertools (line 2)"]
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def local_reads(tree: ast.AST) -> set[int]:
    """ids of the Name nodes that read a name bound in an enclosing function:
    one of its parameters, or a name it assigns."""
    reads: set[int] = set()

    def visit(node: ast.AST, bound: frozenset[str]) -> None:
        if isinstance(node, FUNCTIONS):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            stores = [n.id for n in ast.walk(node)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            bound = bound | {p.arg for p in params if p} | set(stores)
        elif isinstance(node, ast.Name) and node.id in bound:
            reads.add(id(node))
        for child in ast.iter_child_nodes(node):
            visit(child, bound)
    visit(tree, frozenset())
    return reads


def unused_definitions(package: dict[str, str], others: list[str]) -> list[str]:
    """Module-level functions and classes and non-dunder methods defined in
    the ``package`` sources (file name -> text) whose name appears nowhere
    in the package or in ``others`` as a name, an attribute, an imported
    name or a dot-separated part of a string constant (``__all__`` entries,
    and the paths by which the benchmark wraps functions).  Reading a
    parameter or local variable of the same name is not a use."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for name, source in [*package.items(), *(("", s) for s in others)]:
        tree = ast.parse(source)
        local = local_reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                if id(node) not in local:
                    used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(node.value.split("."))
        if name:
            for node in tree.body:
                members = node.body if isinstance(node, ast.ClassDef) else []
                for d in [node, *members]:
                    if (isinstance(d, (ast.FunctionDef, ast.ClassDef))
                            and not (d is not node and d.name.startswith("__"))):
                        defined[d.name] = f"{d.name} ({name}:{d.lineno})"
    return sorted(where for n, where in defined.items() if n not in used)


def test_no_unused_definitions():
    package = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    others = [p.read_text(encoding="utf-8")
              for d in ("tests", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]
    assert unused_definitions(package, others) == []


def test_unused_definition_is_reported():
    src = ("class A:\n    def used(self): pass\n    def stale(self): pass\n"
           "    def __len__(self): return 0\n\n"
           "def f(): return A().used()\n\ndef g(): pass\n\n__all__ = ['f']\n")
    assert unused_definitions({"m.py": src}, []) == ["g (m.py:8)", "stale (m.py:3)"]
    assert unused_definitions({"m.py": src}, ["from m import g\nwrap('m.A.stale')\n"]) == []


def test_local_name_is_not_a_use():
    src = ("def vec(x): pass\n\ndef tmp(): pass\n\n"
           "def f(vec): return vec\n\ndef g():\n    tmp = 1\n    return lambda: tmp\n\n"
           "__all__ = ['f', 'g']\n")
    assert unused_definitions({"m.py": src}, []) == ["tmp (m.py:3)", "vec (m.py:1)"]
    assert unused_definitions({"m.py": src}, ["def h(y): return vec(y) + tmp()\n"]) == []
