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
once per structure on first use from the basis tables (``MultiMap.table``)
of l2, J and mu: the bracket table from l2's, the Jacobiator table from it
and J's, the Identiator table from both and mu's.  The checks run on flat
coordinate tuples (the layout of ``LinearNCat.offsets``: V_i at
offsets[i]:offsets[i + 1] of L_m) through the ``flat_*`` structure maps, and
evaluate each cell expression in basis cells once (``_Exprs``); ``Cell`` is
built only where a public function returns one.  Table coefficients and
argument supports hold an integral value as an ``int`` (``linalg.narrow``),
so integral data is checked in ``int`` arithmetic; nothing here divides.

Every check returns the shared ``report.Report``.  Witnesses name basis
0-cells as (0, i) pairs, like the basis tuples of the homotopy-algebra side,
and basis-or-zero cells by their ``LinearNCat.coded_cell`` codes.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence

from .graded import GradedSpace, MultiMap, check_signatures
from .lincat import Cell, LinearNCat, composites_defined
from .linalg import Frozen, Matrix, Q, Vector, narrow, vadd, vis_zero, vscale, vsub, vzero
from .linfinity import LInfinityData, _accumulate, check_all, is_special
from .report import Collector, Report


class Lie3Data(Frozen):
    """Linear 2-category with bracket, Jacobiator and Identiator constants.

    ``bracket_constants`` is the full weight-0 bilinear family (with zero
    V1 x V1 block), ``J`` collects the V1-parts of the Jacobiator on
    degree-0 triples, ``mu`` the V2-parts of the Identiator on degree-0
    quadruples.
    """

    # no __slots__: the cached tables below live in the instance __dict__
    _fields = ("cat", "bracket_constants", "J", "mu")

    def __post_init__(self):
        if self.cat.n != 2:
            raise ValueError("the bracket calculus needs a linear 2-category")
        check_signatures(self.cat.space, (("bracket_constants", self.bracket_constants, 2, 0),
                                          ("J", self.J, 3, 1), ("mu", self.mu, 4, 2)))
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

    # Tables of the cell operations, built on first use from the basis
    # tables of the constants, so that constructing a Lie3Data builds none.

    @functools.cached_property
    def _bracket_table(self) -> dict:
        """The bracket of 2-cells (see ``bracket_cells``); on m-cells, whose
        flat coordinates are a prefix, it is the bracket of m-cells.  On two
        basis cells it is an entry of l2, except [f, g] = l2(f, t g) on V1."""
        L, o = self.cat, self.cat.offsets
        l2 = {(o[a] + i, o[b] + j): tuple((o[d] + k, c) for k, c in pairs)
              for ((a, i), (b, j)), (d, pairs) in self.bracket_constants.table().items()}
        t = L.t_matrix(1)
        return _tabulate((L.level_dim(2),) * 2, lambda p, q: [
            (c, l2.get((p, k), ())) for k, c in enumerate(t.col(q - o[1])) if c]
            if o[1] <= min(p, q) and max(p, q) < o[2] else [(1, l2.get((p, q), ()))])

    @functools.cached_property
    def _J_table(self) -> dict:
        """The 1-cells ([[x,y],z], J(x,y,z)) on basis triples."""
        br, J = self._bracket_table, _on_objects(self.J, self.cat.offsets[1])
        return _tabulate((self.cat.dim(0),) * 3, lambda x, y, z: [
            (c, br.get((p, z), ())) for p, c in br.get((x, y), ())] + [(1, J.get((x, y, z), ()))])

    @functools.cached_property
    def _mu_table(self) -> dict:
        """The Identiator 2-cells on basis quadruples: [[[x,y],z],u] and
        [J_xyz, u] from the J table, the other four terms of eta's V1 part
        (see ``mu_cell``) and mu itself."""
        L, Jc = self.cat, self._J_table
        b = lambda p, q: self._bracket_table.get((p, q), ())
        J, mu = _on_objects(self.J, L.offsets[1]), _on_objects(self.mu, L.offsets[2])
        return _tabulate((L.dim(0),) * 4, lambda x, y, z, u: [
            *((c, b(p, u)) for p, c in Jc.get((x, y, z), ())),
            *((c, J.get((p, y, u), ())) for p, c in b(x, z)),
            *((c, J.get((x, p, u), ())) for p, c in b(y, z)),
            *((c, b(q, y)) for q, c in J.get((x, z, u), ())),
            *((c, b(x, q)) for q, c in J.get((y, z, u), ())), (1, mu.get((x, y, z, u), ()))])


# -- the cell operations, tabulated over basis indices ----------------


def _tabulate(dims: Sequence[int], terms) -> dict:
    """Sparse table of a multilinear map: each tuple of basis indices, one
    per argument, with a nonzero value -> its nonzero (index, coefficient)
    pairs, where ``terms`` gives the value as (coefficient, pairs) terms.
    Integral coefficients are ``int`` (``linalg.narrow``)."""
    table = {}
    for key in itertools.product(*map(range, dims)):
        out = {}
        for c, pairs in terms(*key):
            for i, v in pairs:
                out[i] = out.get(i, 0) + c * v
        if value := tuple((i, narrow(v)) for i, v in sorted(out.items()) if v):
            table[key] = value
    return table


def _on_objects(f: MultiMap, offset: int) -> dict:
    """The basis table of a map on 0-cells, keyed by basis indices, with its
    values at ``offset`` in flat coordinates."""
    return {tuple(i for _, i in key): tuple((offset + q, c) for q, c in pairs)
            for key, (_, pairs) in f.table().items()}


def _support(v: Sequence[Q]) -> list:
    return [(i, narrow(x)) for i, x in enumerate(v) if x]


def _contract(L: LinearNCat, m: int, table: dict, *supports: list) -> tuple[Vector, list]:
    """The flat m-cell value of a tabulated map, and its support, on
    arguments given by their supports: these are folded left into (basis
    key, coefficient) pairs, and each key in the table adds its entry times
    the coefficient."""
    terms = [((), 1)]
    for s in supports:
        terms = [(key + (i,), x if c == 1 else c if x == 1 else c * x)
                 for key, c in terms for i, x in s]
    acc = {}
    for key, c in terms:
        for i, v in table.get(key, ()):
            acc[i] = acc.get(i, 0) + (v if c == 1 else c * v)
    support, out = [(i, v) for i, v in sorted(acc.items()) if v], list(vzero(L.level_dim(m)))
    for i, v in support:
        out[i] = v
    return tuple(out), support


def _br(D: Lie3Data, m: int, a: Vector, b: Vector) -> Vector:
    return _contract(D.cat, m, D._bracket_table, _support(a), _support(b))[0]


class _Exprs:
    """Cell expressions in 0-cells and 2-cells, each evaluated once.

    An expression is an (id, flat value, support, size) tuple, its size the
    number of leaves in it.  An operation is looked up by the ids of its
    arguments, so its key comes down to the leaves (basis 0-cells and 2-cells
    in the checks), never to Fraction values.  An expression of more than
    ``keep`` leaves is not stored: the checks pass the number of arguments of
    one input when no such expression recurs in another."""

    def __init__(self, D: Lie3Data, keep: int):
        self.D, self.keep, self.memo, self._ids = D, keep, {}, itertools.count()
        self.zeros = [(next(self._ids), vzero(D.cat.level_dim(m)), [], 0) for m in range(3)]

    def leaf(self, v: Sequence[Q]) -> tuple:
        return next(self._ids), tuple(v), _support(v), 1

    def basis(self) -> list[tuple]:
        return [self.leaf(e) for e in Matrix.eye(self.D.cat.dim(0)).cols()]

    def _apply(self, key: tuple, m: int, table: dict, *xs: tuple) -> tuple:
        if (hit := self.memo.get(key)) is None:
            if not all(x[2] for x in xs):  # a multilinear map of a zero argument
                return self.zeros[m]
            hit = (next(self._ids), *_contract(self.D.cat, m, table, *(x[2] for x in xs)),
                   sum(x[3] for x in xs))
            if hit[3] <= self.keep:
                self.memo[key] = hit
        return hit

    def br(self, m: int, a: tuple, b: tuple) -> tuple:
        return self._apply((m, a[0], b[0]), m, self.D._bracket_table, a, b)

    def J(self, x: tuple, y: tuple, z: tuple) -> tuple:
        return self._apply(("J", x[0], y[0], z[0]), 1, self.D._J_table, x, y, z)

    def mu(self, x: tuple, y: tuple, z: tuple, u: tuple) -> tuple:
        return self._apply(("mu", x[0], y[0], z[0], u[0]), 2, self.D._mu_table, x, y, z, u)

    def one(self, w: tuple, k: int) -> tuple:
        """The identity k-cell of the 0-cell w."""
        if (hit := self.memo.get(key := ("1", k, w[0]))) is None:
            hit = self.memo[key] = (next(self._ids), self.D.cat.flat_identity(0, w[1], k), *w[2:])
        return hit


def _sum(*xs: tuple) -> Vector:
    """The value of a sum of expressions, added along their supports."""
    out = list(xs[0][1])
    for x in xs[1:]:
        for i, v in x[2]:
            out[i] = out[i] + v if out[i] else v
    return tuple(out)


def bracket_cells(D: Lie3Data, a: Cell, b: Cell) -> Cell:
    """[a, b] for m-cells, m <= 2, in components: [(x,f,a'), (y,g,b')] =
    (l2(x,y), l2(x,g) + l2(f, tg), l2(x,b') + l2(a',y)) with tg = y + l1 g;
    lower levels are the truncations of this formula."""
    if a.level != b.level:
        raise ValueError("bracket needs cells of equal level")
    L = D.cat
    return L.unflatten(a.level, _br(D, a.level, L.flatten(a), L.flatten(b)))


def bracket_objects(D: Lie3Data, x: Sequence[Q], y: Sequence[Q]) -> Vector:
    return _br(D, 0, x, y)


def J_cell(D: Lie3Data, x: Sequence[Q], y: Sequence[Q], z: Sequence[Q]) -> Cell:
    """The 1-cell ([[x,y],z], J(x,y,z)) from [[x,y],z] to [[x,z],y]+[x,[y,z]]."""
    return D.cat.unflatten(1, _contract(D.cat, 1, D._J_table, *map(_support, (x, y, z)))[0])


def mu_cell(D: Lie3Data, x: Sequence[Q], y: Sequence[Q],
            z: Sequence[Q], u: Sequence[Q]) -> Cell:
    """The Identiator 2-cell ([[[x,y],z],u], eta-V1-part, mu(x,y,z,u)).  As
    composition along 0-cells adds V1 parts, eta's is the sum of those of its
    factors (see ``eta_epsilon``): [J_xyz,u] + J_{[x,z],y,u} + J_{x,[y,z],u}
    + [J_xzu,y] + [x,J_yzu]."""
    return D.cat.unflatten(2, _contract(D.cat, 2, D._mu_table, *map(_support, (x, y, z, u)))[0])


# -- composites with automatic identity padding -----------------------


def _fold_compose(D: Lie3Data, m: int, factors: Sequence[Vector]) -> Vector:
    """Compose flat m-cells along 0-cells, padding each factor with the
    identity cell over the object that the composability condition dictates."""
    L, n0 = D.cat, D.cat.dim(0)
    acc = factors[0]
    for named in factors[1:]:  # the object of named becomes the target object of acc
        acc = L.flat_compose(m, acc, L.flat_target(m, acc, m) + named[n0:], 0)
    return acc


def _eta_epsilon(E: _Exprs, x, y, z, u) -> tuple[Vector, Vector]:
    br = lambda p, q: E.br(0, p, q)
    one = lambda w: E.one(w, 1)
    bc = lambda c, d: E.br(1, c, d)
    eta = _fold_compose(E.D, 1, [
        _sum(bc(E.J(x, y, z), one(u))),
        _sum(E.J(br(x, z), y, u), E.J(x, br(y, z), u)),
        _sum(bc(E.J(x, z, u), one(y))),
        _sum(bc(one(x), E.J(y, z, u))),
    ])
    eps = _fold_compose(E.D, 1, [
        _sum(E.J(br(x, y), z, u)),
        _sum(bc(E.J(x, y, u), one(z))),
        _sum(E.J(x, br(y, u), z), E.J(br(x, u), y, z), E.J(x, y, br(z, u))),
    ])
    return eta, eps


def eta_epsilon(D: Lie3Data, x: Sequence[Q], y: Sequence[Q],
                z: Sequence[Q], u: Sequence[Q]) -> tuple[Cell, Cell]:
    """The two composite 1-cells bounding the Identiator.

    eta = [J_{xyz},1_u] o (J_{[x,z],y,u}+J_{x,[y,z],u}) o ([J_{xzu},1_y]+1)
          o ([1_x,J_{yzu}]+1),
    eps = J_{[x,y],z,u} o ([J_{xyu},1_z]+1)
          o (J_{x,[y,u],z}+J_{[x,u],y,z}+J_{x,y,[z,u]}).
    """
    E = _Exprs(D, 4)
    eta, eps = _eta_epsilon(E, *map(E.leaf, (x, y, z, u)))
    return D.cat.unflatten(1, eta), D.cat.unflatten(1, eps)


def _inverse2(D: Lie3Data, v: Vector) -> Vector:
    return D.cat.flat_target(2, v) + tuple(-c for c in v[D.cat.level_dim(1):])


def inverse2(D: Lie3Data, alpha: Cell) -> Cell:
    """(A,s,a) -> (A, s + l1 a, -a): the inverse along 1-cells; (A, s + l1 a)
    is the target of alpha."""
    if alpha.level != 2:
        raise ValueError("inverse2 acts on 2-cells")
    return D.cat.unflatten(2, _inverse2(D, D.cat.flatten(alpha)))


# -- structural checks ------------------------------------------------


def _objects(key: Sequence[int]) -> tuple:
    """Witness of a tuple of basis 0-cells, as (0, i) basis pairs."""
    return tuple((0, i) for i in key)


def check_bifunctor(D: Lie3Data) -> Report:
    """Verify that the bracket is an antisymmetric bilinear 2-functor.

    Covers respect of sources, targets and identities, preservation of
    compositions on a basis of pairs of composable pairs, the degenerate-bracket
    relations on kernel elements, and the graded derivation property of the
    boundary over the bracket.
    """
    L = D.cat
    col = Collector("bifunctor")
    br = lambda m, a, b: _br(D, m, a, b)
    src, tgt, one = L.flat_source, L.flat_target, L.flat_identity
    basis = [[(c, L.flat_coded(c)) for c in L.spanning_codes(m)] for m in range(3)]
    zero = [vzero(L.level_dim(m)) for m in range(3)]

    # bilinearity makes basis cells a complete test family for s, t, 1
    for m in (1, 2):
        for (ca, a), (cb, b) in itertools.product(basis[m], repeat=2):
            ab, w = br(m, a, b), (ca, cb)
            col.compare("source", w, src(m, ab), br(m - 1, src(m, a), src(m, b)))
            col.compare("target", w, tgt(m, ab), br(m - 1, tgt(m, a), tgt(m, b)))
    for m in (0, 1):
        for (ca, a), (cb, b) in itertools.product(basis[m], repeat=2):
            col.compare("identity", (ca, cb), one(m, br(m, a, b)),
                        br(m + 1, one(m, a), one(m, b)))

    # antisymmetry on basis cells
    for m in (0, 1, 2):
        for (ca, a), (cb, b) in itertools.product(basis[m], repeat=2):
            col.compare("antisymmetry", (ca, cb), vadd(br(m, a, b), br(m, b, a)), zero[m])

    # composition preservation: the residual of
    # [v o v', w o w'] = [v,w] o [v',w'] is bilinear in the composable pairs
    # (v, v') and (w, w'), so the product of two bases of them decides it.
    for m in (1, 2):
        for p in range(m):
            factors = []
            for kv in L.composable_codes(m, p):
                v = L.flat_coded(kv[0])
                factors.append((kv, v, L.flat_right_factor(m, v, kv[1], p)))
            for (kv, v, vp), (kw, w, wp) in itertools.product(factors, repeat=2):
                wit = (p,) + kv + kw
                with composites_defined(col, wit):
                    col.compare("composition", wit,
                                br(m, L.flat_compose(m, v, vp, p), L.flat_compose(m, w, wp, p)),
                                L.flat_compose(m, br(m, v, w), br(m, vp, wp), p))

    # degenerate brackets of kernel elements
    f1 = [(c, f) for c, f in basis[1] if c[1] is not None]
    a2 = [(c, a) for c, a in basis[2] if c[2] is not None]
    for cf, f in f1:
        for cg, g in f1:
            fg, w = br(1, f, g), (cf, cg)
            col.compare("kernel-bracket [f,g]=[1_tf,g]", w, fg, br(1, one(0, tgt(1, f)), g))
            col.compare("kernel-bracket [f,g]=[f,1_tg]", w, fg, br(1, f, one(0, tgt(1, g))))
        tf2 = one(0, tgt(1, f), 2)  # f has no V0 part
        for cb, b in a2:
            w = (cf, cb)
            col.compare("kernel-bracket [1_f,b]=0", w, br(2, one(1, f), b), zero[2])
            col.compare("kernel-bracket [1^2_tf,b]=0", w, br(2, tf2, b), zero[2])
    for ca, a in a2:
        ta = one(1, tgt(2, a))  # the 2-cell 1_{ta}
        for cb, b in a2:
            w = (ca, cb)
            col.compare("kernel-bracket [a,b]=0", w, br(2, a, b), zero[2])
            col.compare("kernel-bracket [1_ta,b]=0", w, br(2, ta, b), zero[2])
            col.compare("kernel-bracket [a,1_tb]=0", w, br(2, a, one(1, tgt(2, b))), zero[2])

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
            lhs = L.t_matrix(od + 1).apply(l2([(da, u), (db, v)]))
        if da >= 1:
            rhs = vadd(rhs, l2([(da - 1, L.t_matrix(da).col(i)), (db, v)]))
        if db >= 1:
            rhs = vadd(rhs, vscale((-1) ** da, l2([(da, u), (db - 1, L.t_matrix(db).col(j))])))
        col.compare("chain-rule", ((da, i), (db, j)), lhs, rhs)
    return col.report()


def _naturality_squares(E: _Exprs, col: Collector, F, G, theta, arity: int):
    """Yield (witness, residual) for F(..alpha..) o theta(targets) minus
    theta(sources) o G(..alpha..), for a flat 2-cell-valued theta on 0-cells,
    basis 0-cells in all slots but one and a basis 2-cell alpha in that slot.
    F, G and theta take expressions of E, so a bracket is evaluated once
    per distinct expression: one without alpha once for all slots, a prefix
    such as [alpha, 1_b] once for all the 0-cells after b.  A square whose
    alpha is 1^2 of a basis 0-cell depends only on all its 0-cells, so it is
    evaluated once for all slots.  The witness is (slot, the 0-cells,
    alpha's code); an undefined composite goes to ``col`` as a "composable"
    failure instead."""
    L = E.D.cat
    objs = E.basis()
    ids = [E.one(x, 2) for x in objs]
    # each basis 2-cell: its code, alpha, and its source and target 0-cells
    alphas = [(c, ids[c[0]], objs[c[0]], objs[c[0]]) if c[0] is not None else
              (c, E.leaf(a := L.flat_coded(c)), E.leaf(L.flat_source(2, a, 2)),
               E.leaf(L.flat_target(2, a, 2))) for c in L.spanning_codes(2)]
    seen = {}  # residuals of the squares of identity alphas, by all their 0-cells
    for slot in range(arity):
        for key in itertools.product(range(L.dim(0)), repeat=arity - 1):
            obs, args = [objs[i] for i in key], [ids[i] for i in key]
            for ca, alpha, s, t in alphas:
                w = (slot, _objects(key), ca)
                a = args[:slot] + [alpha] + args[slot:]
                where = None if ca[0] is None else key[:slot] + (ca[0],) + key[slot:]
                with composites_defined(col, w):
                    if (res := seen.get(where)) is None:
                        res = vsub(L.flat_compose(2, F(*a), theta(obs[:slot] + [t] + obs[slot:]), 0),
                                   L.flat_compose(2, theta(obs[:slot] + [s] + obs[slot:]), G(*a), 0))
                        if where is not None:
                            seen[where] = res
                    yield w, res


def check_jacobiator(D: Lie3Data) -> Report:
    """Target condition and 2-naturality (in each argument slot) of J."""
    L = D.cat
    col = Collector("jacobiator")
    E = _Exprs(D, 2)  # an expression in all three arguments belongs to one input
    e0, bo = E.basis(), lambda p, q: E.br(0, p, q)

    # target: t J_{xyz} = [[x,z],y] + [x,[y,z]]
    for key in itertools.product(range(L.dim(0)), repeat=3):
        x, y, z = (e0[i] for i in key)
        col.compare("target", _objects(key), L.flat_target(1, E.J(x, y, z)[1]),
                    _sum(bo(bo(x, z), y), bo(x, bo(y, z))))

    # [[c1, c2], c3] o J(targets) = J(sources) o ([[c1, c3], c2] + [c1, [c2, c3]])
    br = lambda a, b: E.br(2, a, b)
    F = lambda c1, c2, c3: _sum(br(br(c1, c2), c3))
    G = lambda c1, c2, c3: _sum(br(br(c1, c3), c2), br(c1, br(c2, c3)))
    theta = lambda objs: L.flat_identity(1, E.J(*objs)[1])
    v1, v2 = L.level_dim(0), L.level_dim(1)
    z1, z2 = vzero(L.dim(1)), vzero(L.dim(2))
    for w, res in _naturality_squares(E, col, F, G, theta, 3):
        col.compare("naturality-v1", w, res[v1:v2], z1)
        col.compare("naturality-v2", w, res[v2:], z2)
    return col.report()


def check_identiator(D: Lie3Data) -> Report:
    """Boundary conditions and the modification law of the Identiator."""
    L = D.cat
    col = Collector("identiator")
    E = _Exprs(D, 4)  # each quadruple is also a permutation of three others
    e0 = E.basis()

    # s mu = eta and t mu = eps
    for key in itertools.product(range(L.dim(0)), repeat=4):
        objs = [e0[i] for i in key]
        eta, eps = _eta_epsilon(E, *objs)
        mc, w = E.mu(*objs)[1], _objects(key)
        col.compare("source", w, L.flat_source(2, mc), eta)
        col.compare("target", w, L.flat_target(2, mc), eps)

    # modification law in each slot:
    # F(..alpha..) o mu(targets) = mu(sources) o G(..alpha..)
    E = _Exprs(D, 3)  # an expression in all four cells belongs to one square
    br = lambda a, b: E.br(2, a, b)

    def G(c1, c2, c3, c4):
        c24, c14, c34 = br(c2, c4), br(c1, c4), br(c3, c4)
        return _sum(br(br(c1, c3), c24), br(c1, br(c24, c3)), br(br(c14, c3), c2),
                    br(c14, br(c2, c3)), br(br(c1, c34), c2), br(c1, br(c2, c34)))
    F = lambda c1, c2, c3, c4: _sum(br(br(br(c1, c2), c3), c4))
    v1, v2 = L.level_dim(0), L.level_dim(1)
    zero = vzero(L.level_dim(2))
    for w, res in _naturality_squares(E, col, F, G, lambda objs: E.mu(*objs)[1], 4):
        which = "v2" if vis_zero(res[v1:v2]) else "v1"
        col.compare(f"modification-{which}", w, res, zero)
    return col.report()


# -- the coherence law ------------------------------------------------


def _alpha(E: _Exprs, i: int, x, y, z, u, v) -> Vector:
    br = lambda p, q: E.br(0, p, q)
    one1 = lambda w: E.one(w, 1)
    one2 = lambda *cs: E.D.cat.flat_identity(1, _sum(*cs))  # identity 2-cell of a 1-cell
    bc1 = lambda a, b: E.br(1, a, b)
    bc2 = lambda a, b: E.br(2, a, b)
    mu, J = E.mu, E.J
    id2v = lambda w: E.one(w, 2)  # squared identity of an object

    if i == 1:
        return _fold_compose(E.D, 2, [
            one2(J(br(br(x, y), z), u, v)),
            _sum(mu(x, y, z, br(u, v)), bc2(mu(x, y, z, v), id2v(u))),
            one2(bc1(J(x, br(z, v), y), one1(u)), bc1(J(br(x, v), z, y), one1(u)),
                 bc1(J(x, z, br(y, v)), one1(u))),
            _sum(mu(br(x, v), y, z, u), mu(x, br(y, v), z, u), mu(x, y, br(z, v), u)),
        ])
    if i == 4:
        return _fold_compose(E.D, 2, [
            _sum(bc2(mu(x, y, z, u), id2v(v))),
            one2(bc1(J(br(x, u), z, y), one1(v)), bc1(J(x, z, br(y, u)), one1(v)),
                 bc1(J(x, br(z, u), y), one1(v))),
            _sum(mu(br(x, u), y, z, v), mu(x, br(y, u), z, v), mu(x, y, br(z, u), v)),
            one2(bc1(bc1(J(x, u, v), one1(z)), one1(y)), bc1(J(x, u, v), one1(br(y, z))),
                 bc1(one1(x), bc1(J(y, u, v), one1(z))),
                 bc1(bc1(one1(x), J(z, u, v)), one1(y)),
                 bc1(one1(x), bc1(one1(y), J(z, u, v))),
                 bc1(one1(br(x, z)), J(y, u, v))),
        ])
    if i == 3:
        return _fold_compose(E.D, 2, [
            _sum(mu(br(x, y), z, u, v)),
            one2(bc1(J(br(x, y), v, u), one1(z))),
            _sum(bc2(mu(x, y, u, v), id2v(z))),
            one2(bc1(J(x, y, v), one1(br(z, u))), J(x, y, br(br(z, v), u)),
                 J(x, y, br(z, br(u, v))), J(br(br(x, v), u), y, z),
                 J(br(x, v), br(y, u), z), J(br(x, u), br(y, v), z),
                 J(x, br(br(y, v), u), z), J(br(x, br(u, v)), y, z),
                 J(x, br(y, br(u, v)), z), bc1(J(x, y, u), one1(br(z, v)))),
            one2(J(x, br(y, v), br(z, u)), J(br(x, v), y, br(z, u)),
                 J(x, br(y, u), br(z, v)), J(br(x, u), y, br(z, v))),
        ])
    if i == 2:
        return _fold_compose(E.D, 2, [
            one2(bc1(bc1(J(x, y, z), one1(u)), one1(v))),
            _sum(mu(br(x, z), y, u, v), mu(x, br(y, z), u, v)),
            one2(bc1(one1(x), J(br(y, z), v, u)), bc1(J(br(x, z), v, u), one1(y))),
            _sum(bc2(id2v(x), mu(y, z, u, v)), bc2(mu(x, z, u, v), id2v(y))),
            one2(bc1(J(x, z, v), one1(br(y, u))), bc1(J(x, z, u), one1(br(y, v))),
                 bc1(one1(br(x, v)), J(y, z, u)), bc1(one1(br(x, u)), J(y, z, v))),
        ])
    raise ValueError("i must be in 1..4")


def alpha_cell(D: Lie3Data, i: int, x, y, z, u, v) -> Cell:
    """The i-th composite 2-cell of the coherence law (i in 1..4).

    Each is a chain of 2-cells composed along 0-cells; the unnamed identity
    paddings are resolved automatically from the composability conditions.
    """
    E = _Exprs(D, 5)
    return D.cat.unflatten(2, _alpha(E, i, *map(E.leaf, (x, y, z, u, v))))


def _coherence_residual(E: _Exprs, *objs) -> Vector:
    a1, a2, a3, a4 = (_alpha(E, i, *objs) for i in (1, 2, 3, 4))
    return vsub(vadd(a1, _inverse2(E.D, a4)), vadd(a3, _inverse2(E.D, a2)))


def coherence_residual(D: Lie3Data, x, y, z, u, v) -> Cell:
    """(alpha1 + alpha4^{-1}) - (alpha3 + alpha2^{-1}) on five 0-cells."""
    E = _Exprs(D, 5)
    return D.cat.unflatten(2, _coherence_residual(E, *map(E.leaf, (x, y, z, u, v))))


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
    E = _Exprs(D, 4)  # no two canonical quintuples share an expression of all five
    e0 = E.basis()
    if tuples is None:
        tuples = itertools.combinations_with_replacement(range(n0), 5)
    data, terms = _raw_linfinity(D), {}  # one degree pattern: its shuffle terms once
    col = Collector("coherence")
    zero = vzero(L.level_dim(2))
    for key in tuples:
        w, r5 = _objects(key), {}
        res = _coherence_residual(E, *(e0[i] for i in key))
        _accumulate(data, w, terms, 1, r5)  # five 0-cells: the residual lies in V2
        col.compare("coherence", w, res, zero)
        col.compare("order5-agreement", w, res[L.level_dim(1):],
                    tuple(r5.get(i, 0) for i in range(L.dim(2))))
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
