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

Every check returns the shared ``report.Report``.  Witnesses name basis
0-cells as (0, i) pairs, like the basis tuples of the homotopy-algebra side,
and basis-or-zero cells by their ``LinearNCat.coded_cell`` codes.
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
from .report import Collector, Report


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
        padded = named + D.cat.cell_from_v0(pad_obj, m)
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
    one = lambda w: D.cat.cell_from_v0(w, 1)
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


def _objects(key: Sequence[int]) -> tuple:
    """Witness of a tuple of basis 0-cells, as (0, i) basis pairs."""
    return tuple((0, i) for i in key)


def check_bifunctor(D: Lie3Data) -> Report:
    """Verify that the bracket is an antisymmetric bilinear 2-functor.

    Covers respect of sources, targets and identities, preservation of
    compositions on spanning composable quadruples, the degenerate-bracket
    relations on kernel elements, and the graded derivation property of the
    boundary over the bracket.
    """
    L = D.cat
    col = Collector("bifunctor")
    br = lambda a, b: bracket_cells(D, a, b)
    basis = [[(c, L.coded_cell(c)) for c in L.spanning_codes(m, zero_component_mix=False)]
             for m in range(3)]
    zero = [L.zero_cell(m) for m in range(3)]

    # bilinearity makes basis cells a complete test family for s, t, 1
    for m in (1, 2):
        for (ca, a), (cb, b) in itertools.product(basis[m], repeat=2):
            ab, w = br(a, b), (ca, cb)
            col.compare("source", w, L.source(ab), br(L.source(a), L.source(b)))
            col.compare("target", w, L.target(ab), br(L.target(a), L.target(b)))
    for m in (0, 1):
        for (ca, a), (cb, b) in itertools.product(basis[m], repeat=2):
            col.compare("identity", (ca, cb), L.identity(br(a, b)),
                        br(L.identity(a), L.identity(b)))

    # antisymmetry on basis cells
    for m in (0, 1, 2):
        for (ca, a), (cb, b) in itertools.product(basis[m], repeat=2):
            col.compare("antisymmetry", (ca, cb), br(a, b) + br(b, a), zero[m])

    # composition preservation: the residual of
    # [v o v', w o w'] = [v,w] o [v',w'] is multilinear in
    # (v, free part of v', w, free part of w'), so basis-or-zero slots span.
    for m in (1, 2):
        for p in range(m):
            opts = [((None,) * (m + 1), zero[m])] + basis[m]
            tails = [(c, t) for c, t in opts if all(i is None for i in c[:p + 1])]
            factors = [((cv, ct), v, L.identity_iter(L.target_iter(v, m - p), m - p) + t)
                       for cv, v in opts for ct, t in tails]
            for (kv, v, vp), (kw, w, wp) in itertools.product(factors, repeat=2):
                wit = (p,) + kv + kw
                try:
                    lhs = br(L.compose(v, vp, p), L.compose(w, wp, p))
                    rhs = L.compose(br(v, w), br(vp, wp), p)
                except ComposabilityError as e:
                    col.compare("composable", wit, e.left, e.right)
                    continue
                col.compare("composition", wit, lhs, rhs)

    # degenerate brackets of kernel elements
    f1 = [(c, f) for c, f in basis[1] if c[1] is not None]
    a2 = [(c, a) for c, a in basis[2] if c[2] is not None]
    for cf, f in f1:
        for cg, g in f1:
            fg, w = br(f, g), (cf, cg)
            col.compare("kernel-bracket [f,g]=[1_tf,g]", w, fg, br(L.identity(L.target(f)), g))
            col.compare("kernel-bracket [f,g]=[f,1_tg]", w, fg, br(f, L.identity(L.target(g))))
        tf2 = L.cell_from_v0(D.l1_apply(1, f.components[1]), 2)
        for cb, b in a2:
            w = (cf, cb)
            col.compare("kernel-bracket [1_f,b]=0", w, br(L.identity(f), b), zero[2])
            col.compare("kernel-bracket [1^2_tf,b]=0", w, br(tf2, b), zero[2])
    for ca, a in a2:
        ta = L.identity(L.target(a))  # the 2-cell 1_{ta}
        for cb, b in a2:
            w = (ca, cb)
            col.compare("kernel-bracket [a,b]=0", w, br(a, b), zero[2])
            col.compare("kernel-bracket [1_ta,b]=0", w, br(ta, b), zero[2])
            col.compare("kernel-bracket [a,1_tb]=0", w, br(a, L.identity(L.target(b))), zero[2])

    # graded derivation property of the boundary over the bracket constants:
    # t[u, v] = [tu, v] + (-1)^|u| [u, tv], an identity in degree |u| + |v| - 1
    space = D.space
    l2 = D.bracket_constants.eval_blocks
    eyes = [Matrix.eye(n) for n in space.dims]
    for (da, i), (db, j) in itertools.product(space.basis(), repeat=2):
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
        col.compare("chain-rule", ((da, i), (db, j)), lhs, rhs)
    return col.report()


def _jac_F(D: Lie3Data, c1: Cell, c2: Cell, c3: Cell) -> Cell:
    return bracket_cells(D, bracket_cells(D, c1, c2), c3)


def _jac_G(D: Lie3Data, c1: Cell, c2: Cell, c3: Cell) -> Cell:
    return (bracket_cells(D, bracket_cells(D, c1, c3), c2)
            + bracket_cells(D, c1, bracket_cells(D, c2, c3)))


def _naturality_squares(D: Lie3Data, col: Collector, F, G, theta, arity: int):
    """Yield (witness, residual) for F(..alpha..) o theta(targets) minus
    theta(sources) o G(..alpha..), for a 2-cell-valued theta on 0-cells,
    basis 0-cells in all slots but one and a basis 2-cell alpha in that slot.
    The witness is (slot, the 0-cells, alpha's code); an undefined composite
    goes to ``col`` as a "composable" failure instead."""
    L = D.cat
    e0 = Matrix.eye(L.dim(0)).cols()
    alphas = [(c, L.coded_cell(c)) for c in L.spanning_codes(2, zero_component_mix=False)]
    for slot in range(arity):
        for key in itertools.product(range(L.dim(0)), repeat=arity - 1):
            objs = [e0[i] for i in key]
            ids = [L.cell_from_v0(x, 2) for x in objs]
            for ca, alpha in alphas:
                w = (slot, _objects(key), ca)
                args = ids[:slot] + [alpha] + ids[slot:]
                t2 = vadd(alpha.components[0], D.l1_apply(1, alpha.components[1]))
                t_objs = objs[:slot] + [t2] + objs[slot:]
                s_objs = objs[:slot] + [alpha.components[0]] + objs[slot:]
                try:
                    res = (L.compose(F(D, *args), theta(t_objs), 0)
                           - L.compose(theta(s_objs), G(D, *args), 0))
                except ComposabilityError as e:
                    col.compare("composable", w, e.left, e.right)
                    continue
                yield w, res


def check_jacobiator(D: Lie3Data) -> Report:
    """Target condition and 2-naturality (in each argument slot) of J."""
    L = D.cat
    col = Collector("jacobiator")
    e0 = Matrix.eye(L.dim(0)).cols()
    bo = lambda p, q: bracket_objects(D, p, q)

    # target: t J_{xyz} = [[x,z],y] + [x,[y,z]]
    for key in itertools.product(range(L.dim(0)), repeat=3):
        x, y, z = (e0[i] for i in key)
        col.compare("target", _objects(key), L.target(J_cell(D, x, y, z)).components[0],
                    vadd(bo(bo(x, z), y), bo(x, bo(y, z))))

    theta = lambda objs: L.identity(J_cell(D, *objs))
    z1, z2 = vzero(L.dim(1)), vzero(L.dim(2))
    for w, res in _naturality_squares(D, col, _jac_F, _jac_G, theta, 3):
        col.compare("naturality-v1", w, res.components[1], z1)
        col.compare("naturality-v2", w, res.components[2], z2)
    return col.report()


def _id_F(D: Lie3Data, c1: Cell, c2: Cell, c3: Cell, c4: Cell) -> Cell:
    return bracket_cells(D, bracket_cells(D, bracket_cells(D, c1, c2), c3), c4)


def _id_G(D: Lie3Data, c1: Cell, c2: Cell, c3: Cell, c4: Cell) -> Cell:
    br = lambda a, b: bracket_cells(D, a, b)
    return (br(br(c1, c3), br(c2, c4)) + br(c1, br(br(c2, c4), c3))
            + br(br(br(c1, c4), c3), c2) + br(br(c1, c4), br(c2, c3))
            + br(br(c1, br(c3, c4)), c2) + br(c1, br(c2, br(c3, c4))))


def check_identiator(D: Lie3Data) -> Report:
    """Boundary conditions and the modification law of the Identiator."""
    L = D.cat
    col = Collector("identiator")
    e0 = Matrix.eye(L.dim(0)).cols()

    # s mu = eta and t mu = eps
    for key in itertools.product(range(L.dim(0)), repeat=4):
        objs = [e0[i] for i in key]
        eta, eps = eta_epsilon(D, *objs)
        mc, w = mu_cell(D, *objs), _objects(key)
        col.compare("source", w, L.source(mc), eta)
        col.compare("target", w, L.target(mc), eps)

    # modification law in each slot:
    # F(..alpha..) o mu(targets) = mu(sources) o G(..alpha..)
    zero = L.zero_cell(2)
    for w, res in _naturality_squares(D, col, _id_F, _id_G, lambda objs: mu_cell(D, *objs), 4):
        which = "v2" if vis_zero(res.components[1]) else "v1"
        col.compare(f"modification-{which}", w, res, zero)
    return col.report()


# -- the coherence law ------------------------------------------------


def alpha_cell(D: Lie3Data, i: int, x, y, z, u, v) -> Cell:
    """The i-th composite 2-cell of the coherence law (i in 1..4).

    Each is a chain of 2-cells composed along 0-cells; the unnamed identity
    paddings are resolved automatically from the composability conditions.
    """
    br = lambda p, q: bracket_objects(D, p, q)
    one1 = lambda w: D.cat.cell_from_v0(w, 1)
    one2 = lambda c: D.cat.identity(c)  # identity 2-cell of a 1-cell
    bc = lambda a, b: bracket_cells(D, a, b)
    mu = lambda a, b, c, d: mu_cell(D, a, b, c, d)
    J = lambda a, b, c: J_cell(D, a, b, c)
    id2v = lambda w: D.cat.cell_from_v0(w, 2)  # squared identity of an object

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


def coherence_residual(D: Lie3Data, x, y, z, u, v) -> Cell:
    """(alpha1 + alpha4^{-1}) - (alpha3 + alpha2^{-1}) on five 0-cells."""
    a1 = alpha_cell(D, 1, x, y, z, u, v)
    a2 = alpha_cell(D, 2, x, y, z, u, v)
    a3 = alpha_cell(D, 3, x, y, z, u, v)
    a4 = alpha_cell(D, 4, x, y, z, u, v)
    return (a1 + inverse2(D, a4)) - (a3 + inverse2(D, a2))


def check_coherence(D: Lie3Data, tuples=None) -> Report:
    """Coherence law per quintuple of V0 basis vectors.

    Default tuple set: canonical (sorted, repetition allowed) quintuples.
    The interesting residual component is antisymmetric, so this family
    determines it completely.  Each quintuple is also checked against the
    order-5 residual of the extracted structure constants: its V2 residual
    must equal that left-hand side ("order5-agreement", residual V2 minus
    order-5).
    """
    L = D.cat
    n0 = L.dim(0)
    e0 = Matrix.eye(n0).cols()
    if tuples is None:
        tuples = itertools.combinations_with_replacement(range(n0), 5)
    data = _raw_linfinity(D)
    col = Collector("coherence")
    zero = L.zero_cell(2)
    for key in tuples:
        w = _objects(key)
        res = coherence_residual(D, *(e0[i] for i in key))
        r5 = linfty_residual(data, 5, [GradedVector.basis_vector(D.space, 0, i) for i in key])
        col.compare("coherence", w, res, zero)
        col.compare("order5-agreement", w, res.components[2], r5.component(2))
    return col.report()


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
    for n, rep in enumerate(check_all(A, 5), 1):
        if not rep.passed:
            raise ConversionError(f"order {n} identity fails", rep)
    cat = LinearNCat(A.space, A.l1)
    return Lie3Data(cat, A.l2, A.l3, -A.l4)
