"""Every module of the package uses each name it imports, and every
definition of the package has a caller.  No module imports or reads another
module's private (``_``-prefixed) name.  The arithmetic stays exact: no true
division outside ``linalg``, no float in an evaluation table, a report
residual, a parsed spec value, a map's coefficients, a graded vector, a cell
or a matrix of the simplicial layer, and each of their integral values an
``int``.

Names listed in a module's ``__all__`` count as used (re-exports).
"""

import ast
import importlib
from fractions import Fraction
from pathlib import Path

import pytest

from shlie3.chain import ChainComplexT
from shlie3.graded import GradedVector
from shlie3.lie3 import (Lie3Data, bracket_cells, check_bifunctor, check_coherence,
                         check_identiator, check_jacobiator, mu_cell)
from shlie3.linalg import Frozen, Matrix, dense, vadd, vsub, vzero
from shlie3.lincat import Cell, from_chain, tensor_product
from shlie3.linfinity import check_all
from shlie3.report import Collector
from shlie3.simplicial import aw, ez, moore, nerve, obstruction_demo, tensor_svs
from shlie3.specfile import build, parse_rational, parse_spec, render_lie3, render_linfinity

from test_properties import non_integral_samples
from test_reports import GOLDEN_CASES, GOLDEN_CLI_CASES

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


PUBLIC_UNDERSCORED = {("os", "_exit")}  # (module name, attribute): documented public API


def foreign_private_names(package: dict[str, str]) -> list[str]:
    """The "file:line name" of each ``_``-prefixed, non-dunder name that a module
    of ``package`` (file name -> text) imports or reads as an attribute
    without defining it: as a function, class or assignment target, or as a
    string constant (slot names and ``object.__setattr__`` fields).  The
    attributes in ``PUBLIC_UNDERSCORED``, read on their module's name, are
    not private."""
    private = lambda name: name.startswith("_") and not name.startswith("__")
    public = lambda node: (isinstance(node.value, ast.Name)
                           and (node.value.id, node.attr) in PUBLIC_UNDERSCORED)
    found = []
    for name, source in package.items():
        own, reads = set(), []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own.add(node.name)
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                own.add(node.id if isinstance(node, ast.Name) else node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                own.add(node.value)
            elif isinstance(node, ast.Attribute) and private(node.attr) and not public(node):
                reads.append((node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                reads += [(node.lineno, a.name) for a in node.names if private(a.name)]
        found += [f"{name}:{line} {attr}" for line, attr in reads if attr not in own]
    return sorted(found)


def test_no_module_reads_another_modules_private_names():
    package = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert foreign_private_names(package) == []


def test_foreign_private_name_is_reported():
    a = "def _f(): pass\n\nclass A:\n    __slots__ = ('_s',)\n    def g(self): self._x = 1\n"
    b = ("from .a import A, _f\n_z = 1\n\n"
         "def h(a): return a._x + a._s + A._y + _z + a.__class__\n\n"
         "def k(a): return os._exit, a._exit, sys._exit, a.os._exit\n")
    assert foreign_private_names({"a.py": a, "b.py": b}) == [
        "b.py:1 _f", "b.py:4 _s", "b.py:4 _x", "b.py:4 _y",
        "b.py:6 _exit", "b.py:6 _exit", "b.py:6 _exit"]
    assert foreign_private_names({"a.py": a}) == []


def true_divisions(source: str) -> list[int]:
    """Lines with a ``/`` or ``/=``: on two ints it gives a float."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Div))


def test_no_true_division_outside_linalg():
    """Only ``linalg`` divides (``Matrix.rref``, on Fractions); elsewhere an
    integral coefficient is an int, and int / int would be a float."""
    found = {p.name: true_divisions(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "linalg.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_true_division_is_reported():
    assert true_divisions("x = a / b\ny = a // b\nz /= 3\n") == [1, 3]


def test_tables_and_residuals_are_exact():
    """On the golden-report samples and the non-integral samples, every table
    coefficient and every report residual is an int when integral and a
    Fraction otherwise: no float anywhere."""
    samples = [make() for make, _ in GOLDEN_CASES.values()] + non_integral_samples()
    lie3s = [D for D in samples if isinstance(D, Lie3Data)]
    linfs = [D for D in samples if not isinstance(D, Lie3Data)]
    tables = [m.table() for A in linfs for m in (A.l1, A.l2, A.l3, A.l4)]
    tables += [m.table() for D in lie3s for m in (D.cat.t_data, D.bracket_constants, D.J, D.mu)]
    tables += [t for D in lie3s for t in (D._bracket_table, D._J_table, D._mu_table)]
    coeffs = [c for t in tables for pairs in t.values() for _, c in pairs]
    assert coeffs and narrowed(coeffs)
    reports = [r for A in linfs for r in check_all(A)] + [
        check(D) for D in lie3s
        for check in (check_bifunctor, check_jacobiator, check_identiator, check_coherence)]
    residuals = [c for r in reports for f in r.failures for c in f.residual]
    assert residuals and narrowed(residuals)


def maps_of(S) -> tuple:
    """The four maps of a homotopy-algebra or a categorical structure."""
    if isinstance(S, Lie3Data):
        return S.cat.t_data, S.bracket_constants, S.J, S.mu
    return S.l1, S.l2, S.l3, S.l4


def stored_rationals(samples: list) -> list:
    """Per sample: the coefficients of its maps and of those parsed from its
    spec file, and the coordinates of graded vectors and cells made from
    them: each map's values on its basis keys and their sums of Fraction
    multiples, Identiator cells and their brackets, and each cell rebuilt
    from Fraction components."""
    out = []
    for S in samples:
        parsed = build(parse_spec((render_lie3 if isinstance(S, Lie3Data) else render_linfinity)(S)))
        for m in maps_of(S) + maps_of(parsed):
            vectors = [m.eval_basis(key) for key in m.coeffs]
            vectors += [v.scale(Fraction(3, 2)) + v.scale(Fraction(1, 2)) for v in vectors]
            out += [c for val in m.coeffs.values() for c in val]
            out += [c for v in vectors for block in v.coords for c in block]
        if isinstance(S, Lie3Data):
            e = [S.cat.coded((i,)) for i in range(S.cat.dim(0))]
            cells = [mu_cell(S, *(e[(k + j) % len(e)] for j in range(4))) for k in range(len(e))]
            cells += [bracket_cells(S, a, b) for a in cells for b in cells]
            cells += [Cell(2, tuple(tuple(map(Fraction, b)) for b in a.components)) for a in cells]
            out += [c for a in cells for block in a.components for c in block]
    return out


def test_stored_rationals_are_narrowed():
    """On the golden-report samples, whose constants are integral, every
    stored rational (``stored_rationals``) and every zero vector is an int;
    on the non-integral samples every stored rational is narrowed, and some
    are Fractions.  Integral strings and JSON integers parse to ints.  Only
    stored values are narrowed: vadd, vsub, dense and Matrix.apply return
    the integral Fraction 1/2 + 1/2, and a Matrix, a Cell and a failure's
    residual store it as an int."""
    golden = [make() for make in dict.fromkeys(make for make, _ in GOLDEN_CASES.values())]
    ints = stored_rationals(golden) + list(vzero(4))
    ints += [c for S in golden for block in GradedVector.zero(S.space).coords for c in block]
    assert ints and all(type(c) is int for c in ints)
    mixed = stored_rationals(non_integral_samples())
    assert any(type(c) is Fraction for c in mixed) and narrowed(mixed)
    for text, value in (("6/3", 2), ("-0", 0), ("+5", 5), ("-12/4", -3), (7, 7), (-7, -7)):
        assert type(parse_rational(text, "$")) is int and parse_rational(text, "$") == value
    assert parse_rational("-4/6", "$") == Fraction(-2, 3)
    chain = build(parse_spec('{"kind": "chain", "dims": [2, 1], "maps": {"d1": [[1], ["-2/1"]]}}'))
    assert [type(e) for r in chain.diff(1).rows for e in r] == [int, int]
    half = Fraction(1, 2)
    computed = [*vadd((half,), (half,)), *vsub((half,), (-half,)), *dense(1, [(0, half), (0, half)]),
                *Matrix([[half]]).apply((2,))]
    assert computed == [1] * 4 and {type(c) for c in computed} == {Fraction}
    col = Collector("narrowing")
    col.compare("residual", (), computed, vzero(4))
    stored = [*Matrix([computed]).rows[0], *Cell(0, (computed,)).components[0],
              *col.report().failures[0].residual]
    assert stored == [1] * 12 and {type(c) for c in stored} == {int}


def matrix_entries(value) -> list:
    """The entries of every ``Matrix`` inside value, through the fields of
    value types and through tuples and lists."""
    if isinstance(value, Matrix):
        return [e for r in value.rows for e in r]
    if isinstance(value, Frozen):
        value = value._values()
    if isinstance(value, (tuple, list)):
        return [e for v in value for e in matrix_entries(v)]
    return []


def narrowed(entries) -> bool:
    """Every entry an int or a Fraction that is not integral: no float, and
    no integral Fraction."""
    return all(type(e) is int or type(e) is Fraction and e.denominator != 1 for e in entries)


def golden_chains() -> list[ChainComplexT]:
    """The golden simplicial samples and a non-integral chain."""
    chains = [make() for make in dict.fromkeys(make for make, _ in GOLDEN_CLI_CASES.values())]
    chains = [C for C in chains if isinstance(C, ChainComplexT)]
    # l1 = (2/3, 3/2): its Kronecker square has the integral entry 2/3 * 3/2
    chains.append(ChainComplexT((2, 1), (Matrix([[Fraction(2, 3)], [Fraction(3, 2)]]),)))
    return chains


def test_simplicial_matrices_are_narrowed():
    """On the golden chains, every entry of every matrix that nerve,
    tensor_svs, moore, ez, aw and obstruction_demo return, and of the
    obstruction witness, is narrowed."""
    chains = golden_chains()
    entries = []
    for C in chains:
        L = from_chain(C)
        S = nerve(L, 2)
        rep = obstruction_demo(L)
        entries += matrix_entries([S, tensor_svs(S, S), moore(S), ez(S, S), aw(S, S), rep])
        entries += rep.witness_difference or []
    assert len(chains) == 4 and any(type(e) is Fraction for e in entries)
    assert narrowed(entries)


def test_flat_cells_are_narrowed():
    """In the categories of the golden chains and their tensor squares, every
    coordinate of the flat cells built on the bases of composable pairs (by
    coded, right_factor, target, identity and compose) is narrowed."""
    cats = [from_chain(C) for C in golden_chains()]
    cats += [tensor_product(L, L).cat for L in cats]
    entries = []
    for L in cats:
        for m in range(1, L.n + 1):
            for p in range(m):
                for ca, cb in L.composable_codes(m, p):
                    a = L.coded(ca)
                    b = L.right_factor(m, a, cb, p)
                    unit = L.identity(p, L.target(m, a, m - p), m - p)
                    entries += [*a, *b, *unit, *L.compose(m, a, b, p)]
    assert any(type(e) is Fraction for e in entries)
    assert narrowed(entries)


def test_every_traced_name_resolves():
    """Every (module, attribute path) in ``TARGETS`` of perfbench/launcher.py,
    which the benchmark's tracer wraps by name, names a callable of the
    package (the file is read, not imported)."""
    tree = ast.parse((ROOT / "perfbench" / "launcher.py").read_text(encoding="utf-8"))
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    paths = [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]
    missing = []
    for module, path in paths:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    assert paths and not missing
