"""Categorified Lie brackets on a linear 2-category.

The data is a bracket (antisymmetric bilinear 2-functor), a Jacobiator
(natural 2-transformation measuring the failure of the Jacobi identity)
and an Identiator (2-modification measuring the failure of the Jacobiator
identity), all stored as structure constants on the kernel spaces.  The
checks here are the categorical counterparts of the order 1..5 identities
of the homotopy-algebra presentation, and the two converters realize the
exact correspondence between the presentations.

The multilinear cell operations (bracket of m-cells, Jacobiator and
Identiator cells) are evaluated from sparse tables over basis indices, built
once per structure on first use from their component formulas.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import prod
from typing import Sequence

from .graded import GradedSpace, GradedVector, MultiMap
from .lincat import Cell, ComposabilityError, LinearNCat
from .linalg import Matrix, Q, Vector, vadd, vis_zero, vscale, vsub, vzero
from .linfinity import LInfinityData, check_all, is_special, linfty_residual


@dataclass(frozen=True)
class Lie3Data:
    """Linear 2-category with bracket, Jacobiator and Identiator constants.

    ``bracket_constants`` is the full weight-0 bilinear family (with zero
    V1 x V1 block), ``J`` collects the V1-parts of the Jacobiator on
    degree-0 triples, ``mu`` the V2-parts of the Identiator on degree-0
    quadruples.
    """

    cat: LinearNCat
    bracket_constants: MultiMap
    J: MultiMap
    mu: MultiMap

    def __post_init__(self):
        if self.cat.n != 2:
            raise ValueError("the bracket calculus needs a linear 2-category")
        space = self.cat.space
        for m, name, (ar, w) in ((self.bracket_constants, "bracket_constants", (2, 0)),
                                 (self.J, "J", (3, 1)), (self.mu, "mu", (4, 2))):
            if m.space != space:
                raise ValueError(f"{name} lives on a different space")
            if (m.arity, m.weight) != (ar, w):
                raise ValueError(f"{name} must have arity {ar} and weight {w}")
        for key, _ in self.bracket_constants.entries():
            if key[0][0] == 1 and key[1][0] == 1:
                raise ValueError("bracket constants must vanish on V1 x V1")
        for name, m in (("J", self.J), ("mu", self.mu)):
            for key, _ in m.entries():
                if any(d != 0 for d, _ in key):
                    raise ValueError(f"{name} is defined on degree-0 tuples only")

    @property
    def space(self) -> GradedSpace:
        return self.cat.space

    def l1_apply(self, d: int, v: Sequence[Q]) -> Vector:
        return self.cat.t_matrix(d).apply(v)

    # Tables of the cell operations, built from the component formulas on
    # first use, so that constructing a Lie3Data compiles nothing.

    @functools.cached_property
    def _bracket_tables(self) -> tuple[dict, ...]:
        L = self.cat
        return tuple(_compile((L.level_dim(m),) * 2, lambda a, b, m=m: _bracket_formula(
            self, L.unflatten(m, a), L.unflatten(m, b))) for m in range(3))

    @functools.cached_property
    def _J_table(self) -> dict:
        return _compile((self.cat.dim(0),) * 3, lambda *xs: _J_formula(self, *xs))

    @functools.cached_property
    def _mu_table(self) -> dict:
        return _compile((self.cat.dim(0),) * 4, lambda *xs: _mu_formula(self, *xs))


@dataclass(frozen=True)
class CheckFailure:
    check: str
    detail: str


@dataclass(frozen=True)
class CheckReport:
    name: str
    failures: tuple[CheckFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


# -- the cell operations, compiled into basis tables ------------------


def _compile(dims: Sequence[int], formula) -> dict:
    """Sparse table of a multilinear, cell-valued ``formula`` of flat
    coordinate vectors: every tuple of basis indices, one per argument, with
    a nonzero value -> the nonzero (index, coefficient) pairs of that value."""
    units = [Matrix.eye(n).cols() for n in dims]
    table = {}
    for key in itertools.product(*map(range, dims)):
        value = itertools.chain(*formula(*(u[i] for u, i in zip(units, key))).components)
        if pairs := tuple((i, c) for i, c in enumerate(value) if c):
            table[key] = pairs
    return table


def _contract(L: LinearNCat, m: int, table: dict, args: Sequence[Sequence[Q]]) -> Cell:
    """The m-cell value of a compiled map on flat coordinate vectors, summed
    over the product of the arguments' nonzero entries."""
    out = list(vzero(L.level_dim(m)))
    for combo in itertools.product(*([(i, c) for i, c in enumerate(a) if c] for a in args)):
        if (hit := table.get(tuple(i for i, _ in combo))) is not None:
            c = prod(coeff for _, coeff in combo if coeff != 1)
            for i, v in hit:
                v = v if c == 1 else c * v
                out[i] = out[i] + v if out[i] else v
    return L.unflatten(m, tuple(out))


def _bracket_formula(D: Lie3Data, a: Cell, b: Cell) -> Cell:
    """[a, b] for m-cells, m <= 2, in components: [(x,f,a'), (y,g,b')] =
    (l2(x,y), l2(x,g) + l2(f, tg), l2(x,b') + l2(a',y)) with tg = y + l1 g;
    lower levels are the truncations of this formula."""
    m = a.level
    l2 = D.bracket_constants.eval_blocks
    x, y = a.components[0], b.components[0]
    v0 = l2([(0, x), (0, y)])
    if m == 0:
        return Cell(0, (v0,))
    f, g = a.components[1], b.components[1]
    tg = vadd(y, D.l1_apply(1, g))
    v1 = vadd(l2([(0, x), (1, g)]), l2([(1, f), (0, tg)]))
    if m == 1:
        return Cell(1, (v0, v1))
    a2, b2 = a.components[2], b.components[2]
    v2 = vadd(l2([(0, x), (2, b2)]), l2([(2, a2), (0, y)]))
    return Cell(2, (v0, v1, v2))


def _J_formula(D: Lie3Data, x: Sequence[Q], y: Sequence[Q], z: Sequence[Q]) -> Cell:
    l2 = lambda p, q: D.bracket_constants.eval_blocks([(0, p), (0, q)])
    return Cell(1, (l2(l2(x, y), z), D.J.eval_blocks([(0, x), (0, y), (0, z)])))


def _mu_formula(D: Lie3Data, x: Sequence[Q], y: Sequence[Q],
                z: Sequence[Q], u: Sequence[Q]) -> Cell:
    """Composition along 0-cells adds V1 parts and identity paddings have
    none, so eta's V1 part is the sum of the V1 parts of its four factors
    (see ``eta_epsilon``): [J_xyz, u] + J_{[x,z],y,u} + J_{x,[y,z],u}
    + [J_xzu, y] + [x, J_yzu]."""
    l2, J = D.bracket_constants.eval_blocks, D.J.eval_blocks
    br = lambda p, q: l2([(0, p), (0, q)])
    j1 = lambda a, b, c: J([(0, a), (0, b), (0, c)])
    v1 = functools.reduce(vadd, [
        l2([(1, j1(x, y, z)), (0, u)]), j1(br(x, z), y, u), j1(x, br(y, z), u),
        l2([(1, j1(x, z, u)), (0, y)]), l2([(0, x), (1, j1(y, z, u))])])
    mv = D.mu.eval_blocks([(0, w) for w in (x, y, z, u)])
    return Cell(2, (br(br(br(x, y), z), u), v1, mv))


def bracket_cells(D: Lie3Data, a: Cell, b: Cell) -> Cell:
    """[a, b] for m-cells, m <= 2 (see ``_bracket_formula``)."""
    if a.level != b.level:
        raise ValueError("bracket needs cells of equal level")
    L = D.cat
    return _contract(L, a.level, D._bracket_tables[a.level], (L.flatten(a), L.flatten(b)))


def _obj_cell(D: Lie3Data, x: Sequence[Q], level: int = 0) -> Cell:
    return D.cat.cell_from_v0(x, level)


def bracket_objects(D: Lie3Data, x: Sequence[Q], y: Sequence[Q]) -> Vector:
    return _contract(D.cat, 0, D._bracket_tables[0], (x, y)).components[0]


def J_cell(D: Lie3Data, x: Sequence[Q], y: Sequence[Q], z: Sequence[Q]) -> Cell:
    """The 1-cell ([[x,y],z], J(x,y,z)) from [[x,y],z] to [[x,z],y]+[x,[y,z]]."""
    return _contract(D.cat, 1, D._J_table, (x, y, z))


def mu_cell(D: Lie3Data, x: Sequence[Q], y: Sequence[Q],
            z: Sequence[Q], u: Sequence[Q]) -> Cell:
    """The Identiator 2-cell ([[[x,y],z],u], eta-V1-part, mu(x,y,z,u)), with
    eta's V1 part in closed form (see ``_mu_formula``)."""
    return _contract(D.cat, 2, D._mu_table, (x, y, z, u))


# -- composites with automatic identity padding -----------------------


def _fold_compose(D: Lie3Data, factors: Sequence[Cell]) -> Cell:
    """Compose cells along 0-cells, padding each factor with the identity
    cell over the object that the composability condition dictates."""
    acc = factors[0]
    m = acc.level
    for named in factors[1:]:
        tgt = D.cat.target_iter(acc, m)
        pad_obj = vsub(tgt.components[0], named.components[0])
        padded = named + _obj_cell(D, pad_obj, m)
        acc = D.cat.compose(acc, padded, 0)
    return acc


def eta_epsilon(D: Lie3Data, x: Sequence[Q], y: Sequence[Q],
                z: Sequence[Q], u: Sequence[Q]) -> tuple[Cell, Cell]:
    """The two composite 1-cells bounding the Identiator.

    eta = [J_{xyz},1_u] o (J_{[x,z],y,u}+J_{x,[y,z],u}) o ([J_{xzu},1_y]+1)
          o ([1_x,J_{yzu}]+1),
    eps = J_{[x,y],z,u} o ([J_{xyu},1_z]+1)
          o (J_{x,[y,u],z}+J_{[x,u],y,z}+J_{x,y,[z,u]}).
    """
    br = lambda p, q: bracket_objects(D, p, q)
    one = lambda w: _obj_cell(D, w, 1)
    bc = lambda c, d: bracket_cells(D, c, d)
    eta = _fold_compose(D, [
        bc(J_cell(D, x, y, z), one(u)),
        J_cell(D, br(x, z), y, u) + J_cell(D, x, br(y, z), u),
        bc(J_cell(D, x, z, u), one(y)),
        bc(one(x), J_cell(D, y, z, u)),
    ])
    eps = _fold_compose(D, [
        J_cell(D, br(x, y), z, u),
        bc(J_cell(D, x, y, u), one(z)),
        J_cell(D, x, br(y, u), z) + J_cell(D, br(x, u), y, z) + J_cell(D, x, y, br(z, u)),
    ])
    return eta, eps


def inverse2(D: Lie3Data, alpha: Cell) -> Cell:
    """(A,s,a) -> (A, s + l1 a, -a): the inverse along 1-cells."""
    if alpha.level != 2:
        raise ValueError("inverse2 acts on 2-cells")
    A, s, a = alpha.components
    return Cell(2, (A, vadd(s, D.l1_apply(2, a)), vsub(vzero(len(a)), a)))


# -- structural checks ------------------------------------------------


def _basis_cells_with_zero(L: LinearNCat, m: int):
    yield L.zero_cell(m)
    for d in range(m + 1):
        for i in range(L.dim(d)):
            yield L.basis_cell(m, d, i)


def check_bifunctor(D: Lie3Data) -> CheckReport:
    """Verify that the bracket is an antisymmetric bilinear 2-functor.

    Covers respect of sources, targets and identities, preservation of
    compositions on spanning composable quadruples, the degenerate-bracket
    relations on kernel elements, and the graded derivation property of the
    boundary over the bracket.
    """
    L = D.cat
    failures: list[CheckFailure] = []

    def fail(check, detail):
        failures.append(CheckFailure(check, detail))

    # bilinearity makes basis cells a complete test family for s, t, 1
    for m in (1, 2):
        for a in L.spanning_cells(m, zero_component_mix=False):
            for b in L.spanning_cells(m, zero_component_mix=False):
                ab = bracket_cells(D, a, b)
                if L.source(ab) != bracket_cells(D, L.source(a), L.source(b)):
                    fail("source", f"level {m}")
                if L.target(ab) != bracket_cells(D, L.target(a), L.target(b)):
                    fail("target", f"level {m}")
    for m in (0, 1):
        for a in L.spanning_cells(m, zero_component_mix=False):
            for b in L.spanning_cells(m, zero_component_mix=False):
                lhs = L.identity(bracket_cells(D, a, b))
                if lhs != bracket_cells(D, L.identity(a), L.identity(b)):
                    fail("identity", f"level {m}")

    # antisymmetry on basis cells
    for m in (0, 1, 2):
        for a in L.spanning_cells(m, zero_component_mix=False):
            for b in L.spanning_cells(m, zero_component_mix=False):
                if bracket_cells(D, a, b) + bracket_cells(D, b, a) != L.zero_cell(m):
                    fail("antisymmetry", f"level {m}")

    # composition preservation: the residual of
    # [v o v', w o w'] = [v,w] o [v',w'] is multilinear in
    # (v, free part of v', w, free part of w'), so basis-or-zero slots span.
    for m in (1, 2):
        for p in range(m):
            tails = [L.zero_cell(m)]
            for d in range(p + 1, m + 1):
                for i in range(L.dim(d)):
                    tails.append(L.basis_cell(m, d, i))
            for v in _basis_cells_with_zero(L, m):
                for dv in tails:
                    vp = L.target_iter(v, m - p)
                    vp = L.identity_iter(vp, m - p) + dv
                    for w in _basis_cells_with_zero(L, m):
                        for dw in tails:
                            wp = L.identity_iter(L.target_iter(w, m - p), m - p) + dw
                            try:
                                lhs = bracket_cells(D, L.compose(v, vp, p), L.compose(w, wp, p))
                                rhs = L.compose(bracket_cells(D, v, w),
                                                bracket_cells(D, vp, wp), p)
                            except ComposabilityError:
                                fail("composition", f"level {m}, p={p}: composite undefined")
                                continue
                            if lhs != rhs:
                                fail("composition", f"level {m}, p={p}")

    # degenerate brackets of kernel elements
    n1, n2 = L.dim(1), L.dim(2)
    for i in range(n1):
        f = L.basis_cell(1, 1, i)
        for j in range(n1):
            g = L.basis_cell(1, 1, j)
            fg = bracket_cells(D, f, g)
            if fg != bracket_cells(D, L.identity_iter(L.target(f), 1), g):
                fail("kernel-bracket", "[f,g] != [1_tf, g]")
            if fg != bracket_cells(D, f, L.identity_iter(L.target(g), 1)):
                fail("kernel-bracket", "[f,g] != [f, 1_tg]")
        for j in range(n2):
            b = L.basis_cell(2, 2, j)
            if not bracket_cells(D, L.identity(f), b).is_zero():
                fail("kernel-bracket", "[1_f, b] != 0")
            tf2 = D.l1_apply(1, f.components[1])
            if not bracket_cells(D, _obj_cell(D, tf2, 2), b).is_zero():
                fail("kernel-bracket", "[1^2_tf, b] != 0")
    for i in range(n2):
        a = L.basis_cell(2, 2, i)
        ta = L.identity(L.target(a))  # the 2-cell 1_{ta}
        for j in range(n2):
            b = L.basis_cell(2, 2, j)
            if not bracket_cells(D, a, b).is_zero():
                fail("kernel-bracket", "[a,b] != 0")
            if not bracket_cells(D, ta, b).is_zero():
                fail("kernel-bracket", "[1_ta, b] != 0")
            tb = L.identity(L.target(b))
            if not bracket_cells(D, a, tb).is_zero():
                fail("kernel-bracket", "[a, 1_tb] != 0")

    # graded derivation property of the boundary over the bracket constants:
    # t[u, v] = [tu, v] + (-1)^|u| [u, tv], an identity in degree |u| + |v| - 1
    space = D.space
    l2 = D.bracket_constants.eval_blocks
    eyes = [Matrix.eye(n) for n in space.dims]
    for (da, i) in space.basis():
        for (db, j) in space.basis():
            od = da + db - 1
            if not 0 <= od <= space.top_degree:
                continue
            u, v = eyes[da].col(i), eyes[db].col(j)
            lhs = rhs = vzero(L.dim(od))
            if od < space.top_degree:
                lhs = D.l1_apply(od + 1, l2([(da, u), (db, v)]))
            if da >= 1:
                rhs = vadd(rhs, l2([(da - 1, L.t_matrix(da).col(i)), (db, v)]))
            if db >= 1:
                rhs = vadd(rhs, vscale((-1) ** da, l2([(da, u), (db - 1, L.t_matrix(db).col(j))])))
            if lhs != rhs:
                fail("chain-rule", f"degrees ({da}, {db})")

    return CheckReport("bifunctor", tuple(failures))


def _jac_F(D: Lie3Data, c1: Cell, c2: Cell, c3: Cell) -> Cell:
    return bracket_cells(D, bracket_cells(D, c1, c2), c3)


def _jac_G(D: Lie3Data, c1: Cell, c2: Cell, c3: Cell) -> Cell:
    return (bracket_cells(D, bracket_cells(D, c1, c3), c2)
            + bracket_cells(D, c1, bracket_cells(D, c2, c3)))


def _naturality_residual(D: Lie3Data, F, G, theta, objs: list[Vector],
                         slot: int, alpha: Cell) -> Cell:
    """Difference of F(..alpha..) o theta(targets) and theta(sources) o G(..alpha..),
    for a 2-cell-valued theta on 0-cells and alpha in the given slot."""
    L = D.cat
    t2 = vadd(alpha.components[0], D.l1_apply(1, alpha.components[1]))
    args = [_obj_cell(D, w, 2) for w in objs]
    args.insert(slot, alpha)
    t_objs = list(objs)
    t_objs.insert(slot, t2)
    s_objs = list(objs)
    s_objs.insert(slot, alpha.components[0])
    lhs = L.compose(F(D, *args), theta(t_objs), 0)
    rhs = L.compose(theta(s_objs), G(D, *args), 0)
    return lhs - rhs


def check_jacobiator(D: Lie3Data) -> CheckReport:
    """Target condition and 2-naturality (in each argument slot) of J."""
    L = D.cat
    failures: list[CheckFailure] = []
    e0 = Matrix.eye(L.dim(0)).cols()

    # target: t J_{xyz} = [[x,z],y] + [x,[y,z]]
    for x in e0:
        for y in e0:
            for z in e0:
                jc = J_cell(D, x, y, z)
                want = vadd(bracket_objects(D, bracket_objects(D, x, z), y),
                            bracket_objects(D, x, bracket_objects(D, y, z)))
                if L.target(jc).components[0] != want:
                    failures.append(CheckFailure("target", "t J != [[x,z],y]+[x,[y,z]]"))

    theta = lambda objs: L.identity(J_cell(D, *objs))
    for slot in range(3):
        for objs in itertools.product(e0, repeat=2):
            for alpha in L.spanning_cells(2, zero_component_mix=False):
                try:
                    res = _naturality_residual(D, _jac_F, _jac_G, theta, list(objs), slot, alpha)
                except ComposabilityError:
                    failures.append(CheckFailure("naturality", f"slot {slot}: composite undefined"))
                    continue
                if not vis_zero(res.components[1]):
                    failures.append(CheckFailure("naturality-v1", f"slot {slot}"))
                if not vis_zero(res.components[2]):
                    failures.append(CheckFailure("naturality-v2", f"slot {slot}"))
    return CheckReport("jacobiator", tuple(failures))


def _id_F(D: Lie3Data, c1: Cell, c2: Cell, c3: Cell, c4: Cell) -> Cell:
    return bracket_cells(D, bracket_cells(D, bracket_cells(D, c1, c2), c3), c4)


def _id_G(D: Lie3Data, c1: Cell, c2: Cell, c3: Cell, c4: Cell) -> Cell:
    br = lambda a, b: bracket_cells(D, a, b)
    return (br(br(c1, c3), br(c2, c4)) + br(c1, br(br(c2, c4), c3))
            + br(br(br(c1, c4), c3), c2) + br(br(c1, c4), br(c2, c3))
            + br(br(c1, br(c3, c4)), c2) + br(c1, br(c2, br(c3, c4))))


def check_identiator(D: Lie3Data) -> CheckReport:
    """Boundary conditions and the modification law of the Identiator."""
    L = D.cat
    failures: list[CheckFailure] = []
    e0 = Matrix.eye(L.dim(0)).cols()

    # s mu = eta and t mu = eps
    for objs in itertools.product(e0, repeat=4):
        eta, eps = eta_epsilon(D, *objs)
        mc = mu_cell(D, *objs)
        if L.source(mc) != eta:
            failures.append(CheckFailure("source", "s mu != eta"))
        if L.target(mc) != eps:
            failures.append(CheckFailure("target", "t mu != eps"))

    # modification law in each slot:
    # F(..alpha..) o mu(targets) = mu(sources) o G(..alpha..)
    theta = lambda objs: mu_cell(D, *objs)
    for slot in range(4):
        for objs in itertools.product(e0, repeat=3):
            for alpha in L.spanning_cells(2, zero_component_mix=False):
                try:
                    res = _naturality_residual(D, _id_F, _id_G, theta, list(objs), slot, alpha)
                except ComposabilityError:
                    failures.append(CheckFailure("modification", f"slot {slot}: composite undefined"))
                    continue
                if not res.is_zero():
                    which = "v2" if vis_zero(res.components[1]) else "v1"
                    failures.append(CheckFailure(f"modification-{which}", f"slot {slot}"))
    return CheckReport("identiator", tuple(failures))


# -- the coherence law ------------------------------------------------


def alpha_cell(D: Lie3Data, i: int, x, y, z, u, v) -> Cell:
    """The i-th composite 2-cell of the coherence law (i in 1..4).

    Each is a chain of 2-cells composed along 0-cells; the unnamed identity
    paddings are resolved automatically from the composability conditions.
    """
    br = lambda p, q: bracket_objects(D, p, q)
    one1 = lambda w: _obj_cell(D, w, 1)
    one2 = lambda c: D.cat.identity(c)  # identity 2-cell of a 1-cell
    bc = lambda a, b: bracket_cells(D, a, b)
    mu = lambda a, b, c, d: mu_cell(D, a, b, c, d)
    J = lambda a, b, c: J_cell(D, a, b, c)
    id2v = lambda w: _obj_cell(D, w, 2)  # squared identity of an object

    if i == 1:
        return _fold_compose(D, [
            one2(J(br(br(x, y), z), u, v)),
            mu(x, y, z, br(u, v)) + bc(mu(x, y, z, v), id2v(u)),
            one2(bc(J(x, br(z, v), y), one1(u)) + bc(J(br(x, v), z, y), one1(u))
                 + bc(J(x, z, br(y, v)), one1(u))),
            mu(br(x, v), y, z, u) + mu(x, br(y, v), z, u) + mu(x, y, br(z, v), u),
        ])
    if i == 4:
        return _fold_compose(D, [
            bc(mu(x, y, z, u), id2v(v)),
            one2(bc(J(br(x, u), z, y), one1(v)) + bc(J(x, z, br(y, u)), one1(v))
                 + bc(J(x, br(z, u), y), one1(v))),
            mu(br(x, u), y, z, v) + mu(x, br(y, u), z, v) + mu(x, y, br(z, u), v),
            one2(bc(bc(J(x, u, v), one1(z)), one1(y)) + bc(J(x, u, v), one1(br(y, z)))
                 + bc(one1(x), bc(J(y, u, v), one1(z))) + bc(bc(one1(x), J(z, u, v)), one1(y))
                 + bc(one1(x), bc(one1(y), J(z, u, v))) + bc(one1(br(x, z)), J(y, u, v))),
        ])
    if i == 3:
        return _fold_compose(D, [
            mu(br(x, y), z, u, v),
            one2(bc(J(br(x, y), v, u), one1(z))),
            bc(mu(x, y, u, v), id2v(z)),
            one2(bc(J(x, y, v), one1(br(z, u))) + J(x, y, br(br(z, v), u))
                 + J(x, y, br(z, br(u, v))) + J(br(br(x, v), u), y, z)
                 + J(br(x, v), br(y, u), z) + J(br(x, u), br(y, v), z)
                 + J(x, br(br(y, v), u), z) + J(br(x, br(u, v)), y, z)
                 + J(x, br(y, br(u, v)), z) + bc(J(x, y, u), one1(br(z, v)))),
            one2(J(x, br(y, v), br(z, u)) + J(br(x, v), y, br(z, u))
                 + J(x, br(y, u), br(z, v)) + J(br(x, u), y, br(z, v))),
        ])
    if i == 2:
        return _fold_compose(D, [
            one2(bc(bc(J(x, y, z), one1(u)), one1(v))),
            mu(br(x, z), y, u, v) + mu(x, br(y, z), u, v),
            one2(bc(one1(x), J(br(y, z), v, u)) + bc(J(br(x, z), v, u), one1(y))),
            bc(id2v(x), mu(y, z, u, v)) + bc(mu(x, z, u, v), id2v(y)),
            one2(bc(J(x, z, v), one1(br(y, u))) + bc(J(x, z, u), one1(br(y, v)))
                 + bc(one1(br(x, v)), J(y, z, u)) + bc(one1(br(x, u)), J(y, z, v))),
        ])
    raise ValueError("i must be in 1..4")


@dataclass(frozen=True)
class QuintupleResult:
    key: tuple
    v0_residual: Vector
    v1_residual: Vector
    v2_residual: Vector
    order5_residual: Vector  # left-hand side of the order-5 identity

    @property
    def passed(self) -> bool:
        return vis_zero(self.v0_residual) and vis_zero(self.v1_residual) and vis_zero(self.v2_residual)

    @property
    def matches_order5(self) -> bool:
        return self.v2_residual == self.order5_residual


@dataclass(frozen=True)
class CoherenceReport:
    results: tuple[QuintupleResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def v2_matches_order5(self) -> bool:
        return all(r.matches_order5 for r in self.results)


def coherence_residual(D: Lie3Data, x, y, z, u, v) -> Cell:
    """(alpha1 + alpha4^{-1}) - (alpha3 + alpha2^{-1}) on five 0-cells."""
    a1 = alpha_cell(D, 1, x, y, z, u, v)
    a2 = alpha_cell(D, 2, x, y, z, u, v)
    a3 = alpha_cell(D, 3, x, y, z, u, v)
    a4 = alpha_cell(D, 4, x, y, z, u, v)
    return (a1 + inverse2(D, a4)) - (a3 + inverse2(D, a2))


def check_coherence(D: Lie3Data, tuples=None) -> CoherenceReport:
    """Coherence law per quintuple of V0 basis vectors.

    Default tuple set: canonical (sorted, repetition allowed) quintuples.
    The interesting residual component is antisymmetric, so this family
    determines it completely; the report also carries the order-5 residual
    of the extracted structure constants for a side-by-side comparison.
    """
    L = D.cat
    n0 = L.dim(0)
    e0 = Matrix.eye(n0).cols()
    if tuples is None:
        tuples = list(itertools.combinations_with_replacement(range(n0), 5))
    data = _raw_linfinity(D)
    results = []
    for key in tuples:
        args_v = [e0[i] for i in key]
        res = coherence_residual(D, *args_v)
        args_g = [GradedVector.basis_vector(D.space, 0, i) for i in key]
        r5 = linfty_residual(data, 5, args_g).component(2)
        results.append(QuintupleResult(tuple(key), res.components[0],
                                       res.components[1], res.components[2], r5))
    return CoherenceReport(tuple(results))


# -- converters -------------------------------------------------------


class ConversionError(ValueError):
    def __init__(self, msg, report=None):
        super().__init__(msg)
        self.report = report


def _raw_linfinity(D: Lie3Data) -> LInfinityData:
    """Structure constants of D in homotopy-algebra form, without gating."""
    return LInfinityData(D.space, D.cat.t_data, D.bracket_constants, D.J, -D.mu)


def to_linfinity(D: Lie3Data) -> LInfinityData:
    """Extract the homotopy-algebra constants; refuses structurally bad data."""
    for rep in (check_bifunctor(D), check_jacobiator(D), check_identiator(D)):
        if not rep.passed:
            raise ConversionError(f"{rep.name} check failed", rep)
    coh = check_coherence(D)
    if not coh.passed:
        raise ConversionError("coherence check failed", coh)
    return _raw_linfinity(D)


def from_linfinity(A: LInfinityData) -> Lie3Data:
    """Build the categorical presentation; refuses non-special or invalid data."""
    special, witness = is_special(A)
    if not special:
        raise ConversionError(f"data is not special: offending key {witness}")
    for rep in check_all(A, 5):
        if not rep.passed:
            raise ConversionError(f"order {rep.n} identity fails", rep)
    cat = LinearNCat(A.space, A.l1)
    return Lie3Data(cat, A.l2, A.l3, -A.l4)
