"""Categorified Lie brackets on a linear 2-category.

The data is a bracket (antisymmetric bilinear 2-functor), a Jacobiator
(natural 2-transformation measuring the failure of the Jacobi identity)
and an Identiator (2-modification measuring the failure of the Jacobiator
identity), all stored as structure constants on the kernel spaces.  The
checks here are the categorical counterparts of the order 1..5 identities
of the homotopy-algebra presentation, and the two converters realize the
exact correspondence between the presentations.

The multilinear cell operations and the two sides of each law are tables in
the package's one sparse format (see ``linalg``) on flat basis indices (the
layout of ``LinearNCat.offsets``: V_i at offsets[i]:offsets[i + 1] of L_m).
Each is built once with ``linalg.compose``, which substitutes one table into
one argument of another, from t's table (``LinearNCat.t_table``) and those of
l2, J and mu: the bracket table from t's and l2's, [[a,b],c] and [a,[b,c]]
from it, the Jacobiator table from them and J's, the Identiator table from
all of these and mu's.  A composite along 0-cells (eta, eps, the
coherence chains) is its first factor plus the parts above V0 of the others,
as the identities that pad them have only a V0 part.  The Jacobiator and
Identiator laws are multilinear in (the basis 0-cells, one basis 2-cell
alpha), so each side is one table with one key per naturality square, and
the checks compare them key by key (``_squares``).  The coherence chains are
traced once per structure into a plan of contractions (``_Plan``), run once
per quintuple above V0 only: but for brackets of two 0-cells, it reads tables
restricted to outputs above V0 (``Lie3Data._above_v0``).  That is exact.  No
V0 part reaches an output above V0, as each J and mu takes 0-cells, each
bracket of 1- or 2-cells pairs one with a 0-cell, and l2 has weight 0.  Each
chain's V0 block is its source [[[[x,y],z],u],v], which alpha^-1 keeps, so
the residual's is (1 + 1 - 1 - 1) times it.
``Cell`` is built only where a public function returns one.  Integral
coefficients are ``int`` (``linalg.rational``); nothing here divides.

Every check returns the shared ``report.Report``.  Witnesses name basis
0-cells as (0, i) pairs, like the basis tuples of the homotopy-algebra side,
and basis-or-zero cells by their ``LinearNCat.coded`` codes.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import operator
from collections.abc import Iterable, Sequence

from .graded import GradedSpace, canonicalize, check_signatures
from .lincat import Cell, ComposabilityError, LinearNCat
from .linalg import Frozen, Vector, combine, compose, contract, dense, narrow, vadd, vzero
from .linfinity import LInfinityData, accumulate_residual, check_all, is_special, special_witness
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
        # J's keys off degree-0 triples have total degree 1; mu's are all degree 0
        if key := special_witness(self.bracket_constants, self.J):
            raise ValueError("bracket constants must vanish on V1 x V1" if len(key) == 2
                             else "J is defined on degree-0 tuples only")

    @property
    def space(self) -> GradedSpace:
        return self.cat.space

    # Tables of the cell operations, built on first use from the basis
    # tables of the constants with ``linalg.compose``, so that constructing a
    # Lie3Data builds none.

    @functools.cached_property
    def _bracket_table(self) -> dict:
        """The bracket of 2-cells (see ``bracket_cells``); on m-cells, whose
        flat coordinates are a prefix, it is the bracket of m-cells.  On two
        basis cells it is an entry of l2, except [f, g] = l2(f, t g) on V1."""
        o, l2 = self.cat.offsets, self.cat.flat_table(self.bracket_constants)
        v1 = lambda table: {k: v for k, v in table.items() if o[1] <= k[0] < o[2]}
        return combine((1, l2), (1, compose(v1(l2), v1(self.cat.t_table[1]), 1)))

    @functools.cached_property
    def _nested(self) -> tuple[dict, dict]:
        """[[a,b],c] and [a,[b,c]] on the keys with at most one flat index
        above V0 (see ``_squares``)."""
        br, sq = self._bracket_table, (self.cat.offsets[1], 1)
        return compose(br, br, 0, sq), compose(br, br, 1, sq)

    @functools.cached_property
    def _J_table(self) -> dict:
        """The 1-cells ([[x,y],z], J(x,y,z)) on basis triples."""
        o1 = self.cat.offsets[1]
        return combine((1, {k: v for k, v in self._nested[0].items() if max(k) < o1}),
                       (1, self.cat.flat_table(self.J)))

    @functools.cached_property
    def _mu_table(self) -> dict:
        """The Identiator 2-cells on basis quadruples: eta in V0 + V1 (see
        ``mu_cell``) and mu in V2."""
        return combine((1, self._eta_eps[0]), (1, self.cat.flat_table(self.mu)))

    @functools.cached_property
    def _J_factors(self) -> tuple[list, list, dict]:
        """eta's and eps's factors above V0: J's constants and the bracket,
        each with the other in argument k (``Jb[k]``, k < 2, and ``bJ[k]``),
        and the sum of eta's factors after [J_xyz, 1_u]."""
        br, v0, J = self._bracket_table, (self.cat.offsets[1], 0), self.cat.flat_table(self.J)
        Jb, bJ = [compose(J, br, k, v0) for k in range(2)], [compose(br, J, k, v0) for k in range(2)]
        return Jb, bJ, combine((1, Jb[0], (0, 2, 1, 3)), (1, Jb[1]),
                               (1, bJ[0], (0, 2, 3, 1)), (1, bJ[1]))

    @functools.cached_property
    def _eta_eps(self) -> tuple[dict, dict]:
        """eta and eps of ``eta_epsilon`` on basis quadruples, each first factor in full."""
        br, Jt, v0 = self._bracket_table, self._J_table, (self.cat.offsets[1], 0)
        Jb, bJ, eta_rest = self._J_factors
        Jb2 = compose(self.cat.flat_table(self.J), br, 2, v0)  # only eps has it
        eps = combine((1, compose(Jt, br, 0, v0)), (1, bJ[0], (0, 1, 3, 2)),
                      (1, Jb[1], (0, 1, 3, 2)), (1, Jb[0], (0, 3, 1, 2)), (1, Jb2))
        return combine((1, compose(br, Jt, 0, v0)), (1, eta_rest)), eps

    @functools.cached_property
    def _above_v0(self) -> dict:
        """The tables of ``_Plan`` above V0: "br" of 2-cells (and 1-cells, as
        L_1 maps into L_1), "J", and "mu", whose eta starts with ``bJ[0]``."""
        o, (_, bJ, eta_rest), flat = self.cat.offsets, self._J_factors, self.cat.flat_table
        return {"br": _cut(self._bracket_table, o[1], o[3]), "J": flat(self.J),
                "mu": combine((1, bJ[0]), (1, eta_rest), (1, flat(self.mu)))}

    @functools.cached_property
    def _coherence_plan(self) -> _Plan:
        """The four coherence chains traced once (see ``_Plan``)."""
        return _Plan(self)


# -- the cell operations, tabulated over basis indices ----------------


def _cut(table: dict, lo: int, hi: int) -> dict:
    """The table restricted to the outputs in [lo, hi)."""
    return {key: out for key, pairs in table.items()
            if (out := tuple(p for p in pairs if lo <= p[0] < hi))}


def _t_rows(L: LinearNCat, m: int) -> dict:  # t of m-cells is the identity below V_m
    return {k: v for k, v in L.t_table[m].items() if k[0] >= L.offsets[m]}


def _support(v: Sequence) -> list:
    return [(i, narrow(x)) for i, x in enumerate(v) if x]


def _br(D: Lie3Data, m: int, a: Vector, b: Vector) -> Vector:
    return dense(D.cat.level_dim(m), contract(D._bracket_table, _support(a), _support(b)))


def bracket_cells(D: Lie3Data, a: Cell, b: Cell) -> Cell:
    """[a, b] for m-cells, m <= 2, in components: [(x,f,a'), (y,g,b')] =
    (l2(x,y), l2(x,g) + l2(f, tg), l2(x,b') + l2(a',y)) with tg = y + l1 g;
    lower levels are the truncations of this formula."""
    if a.level != b.level:
        raise ValueError("bracket needs cells of equal level")
    L = D.cat
    return L.unflatten(a.level, _br(D, a.level, L.flatten(a), L.flatten(b)))


def mu_cell(D: Lie3Data, x: Sequence, y: Sequence, z: Sequence, u: Sequence) -> Cell:
    """The Identiator 2-cell ([[[x,y],z],u], eta-V1-part, mu(x,y,z,u)).  As
    composition along 0-cells adds V1 parts, eta's is the sum of those of its
    factors (see ``eta_epsilon``): [J_xyz,u] + J_{[x,z],y,u} + J_{x,[y,z],u}
    + [J_xzu,y] + [x,J_yzu]."""
    pairs = contract(D._mu_table, *map(_support, (x, y, z, u)))
    return D.cat.unflatten(2, dense(D.cat.level_dim(2), pairs))


# -- composites along 0-cells -----------------------------------------


def eta_epsilon(D: Lie3Data, x: Sequence, y: Sequence, z: Sequence, u: Sequence
                ) -> tuple[Cell, Cell]:
    """The two composite 1-cells bounding the Identiator.

    eta = [J_{xyz},1_u] o (J_{[x,z],y,u}+J_{x,[y,z],u}) o ([J_{xzu},1_y]+1)
          o ([1_x,J_{yzu}]+1),
    eps = J_{[x,y],z,u} o ([J_{xyu},1_z]+1)
          o (J_{x,[y,u],z}+J_{[x,u],y,z}+J_{x,y,[z,u]}).
    """
    L, args = D.cat, [_support(v) for v in (x, y, z, u)]
    eta, eps = (L.unflatten(1, dense(L.level_dim(1), contract(T, *args))) for T in D._eta_eps)
    return eta, eps


def _inverse2(D: Lie3Data, pairs: list) -> list:
    """(A, s, a) -> (A, s + t a, -a), which is t (``LinearNCat.t_table``)
    minus a, on a flat 2-cell given as (index, coefficient) pairs."""
    o2 = D.cat.offsets[2]
    return contract(D.cat.t_table[2], pairs) + [(i, -c) for i, c in pairs if i >= o2]


# -- structural checks ------------------------------------------------


def _objects(key: Sequence[int]) -> tuple:
    """Witness of a tuple of basis 0-cells, as (0, i) basis pairs."""
    return tuple((0, i) for i in key)


@contextlib.contextmanager
def composites_defined(col: Collector, witness):
    """Context for the comparisons of one witness: a composite that raises
    ComposabilityError ends them with a "composable" failure of ``col``, its
    residual the error's left minus right flat cell (t^k a - s^k b on a
    mismatch)."""
    try:
        yield
    except ComposabilityError as e:
        col.compare("composable", witness, e.left, e.right)


def check_bifunctor(D: Lie3Data) -> Report:
    """Verify that the bracket is an antisymmetric bilinear 2-functor.

    Covers respect of targets, preservation of compositions on a basis of
    pairs of composable pairs, the degenerate-bracket relations
    [f,g] = [1_tf,g] and [1^2_tf,b] = 0 on kernel elements, and the graded
    derivation property of the boundary over the bracket.  The other laws
    hold for every ``Lie3Data`` and are not compared:

    - respect of sources and identities: ``_bracket_table`` sends a key with
      an index in V_m only into V_m, and a key in L_{m-1} only into L_{m-1},
      as l2 has weight 0, ``Lie3Data`` refuses l2 on V1 x V1 and the t-term
      reads only V1 x V1 keys; so truncation and zero-padding commute with
      the bracket;
    - [f,g] = [f,1_tg]: the V1 x V1 entry is l2(f, t g) by construction;
    - [1_f,b] = [a,b] = [1_ta,b] = [a,1_tb] = 0: their keys lie in V1 x V2,
      V2 x V2, V1 x V2 and V2 x V1, which have no table entries.
    """
    L = D.cat
    col = Collector("bifunctor")
    br = lambda m, a, b: _br(D, m, a, b)
    tgt, one = L.target, L.identity
    basis = [[(c, L.coded(c)) for c in L.spanning_codes(m)] for m in range(3)]
    zero = [vzero(L.level_dim(m)) for m in range(3)]

    # bilinearity makes basis cells a complete test family for t
    for m in (1, 2):
        for (ca, a), (cb, b) in itertools.product(basis[m], repeat=2):
            col.compare("target", (ca, cb), tgt(m, br(m, a, b)), br(m - 1, tgt(m, a), tgt(m, b)))

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
                v = L.coded(kv[0])
                factors.append((kv, v, L.right_factor(m, v, kv[1], p)))
            for (kv, v, vp), (kw, w, wp) in itertools.product(factors, repeat=2):
                wit = (p,) + kv + kw
                with composites_defined(col, wit):
                    col.compare("composition", wit,
                                br(m, L.compose(m, v, vp, p), L.compose(m, w, wp, p)),
                                L.compose(m, br(m, v, w), br(m, vp, wp), p))

    # degenerate brackets of kernel elements
    f1 = [(c, f) for c, f in basis[1] if c[1] is not None]
    a2 = [(c, a) for c, a in basis[2] if c[2] is not None]
    for cf, f in f1:
        for cg, g in f1:
            col.compare("kernel-bracket [f,g]=[1_tf,g]", (cf, cg), br(1, f, g),
                        br(1, one(0, tgt(1, f)), g))
        tf2 = one(0, tgt(1, f), 2)  # f has no V0 part
        for cb, b in a2:
            col.compare("kernel-bracket [1^2_tf,b]=0", (cf, cb), br(2, tf2, b), zero[2])

    # graded derivation property of the boundary over the bracket constants:
    # t[u, v] = [tu, v] + (-1)^|u| [u, tv], an identity in degree |u| + |v| - 1
    l2, t = D.bracket_constants.table(), L.t_data.table()
    for u, v in itertools.product(D.space.basis(), repeat=2):
        od = u[0] + v[0] - 1
        if not 0 <= od <= D.space.top_degree:
            continue
        lhs = contract(t, contract(l2, [(u, 1)], [(v, 1)]))
        rhs = contract(l2, t.get((u,), ()), [(v, 1)]) + [
            (b, (-1) ** u[0] * c) for b, c in contract(l2, [(u, 1)], t.get((v,), ()))]
        col.compare("chain-rule", (u, v), *(dense(L.dim(od), ((i, c) for (_, i), c in side))
                                             for side in (lhs, rhs)))
    return col.report()


def _squares(D: Lie3Data, col: Collector, F: dict, G: dict, theta: dict, arity: int):
    """Yield (witness, residual pairs) of F(..alpha..) o theta(targets) minus
    theta(sources) o G(..alpha..), with basis 0-cells in all slots but one and
    a basis 2-cell alpha in that slot, for F and G tabulated on the keys with
    at most one flat index above V0 and a 2-cell valued theta on basis
    0-cells.  A square's key is its 0-cells with alpha in its slot; the key
    of an identity alpha (all in V0) is shared by all slots.  With theta_s,
    theta_t theta with s^2 alpha, t^2 alpha in alpha's slot, the composites
    are defined iff C1 = t^2 F - theta_t|V0 and C2 = t^2 theta_s - G|V0
    vanish, and the residual is F + theta_t|>V0 - theta_s - G|>V0.  The
    witness is (slot, the 0-cells, alpha's code); an undefined composite goes
    to ``col`` as a "composable" failure instead, its residual C1, else C2."""
    L, o1, top = D.cat, D.cat.offsets[1], D.cat.level_dim(2)
    # t^2 of 2-cells is t of 1-cells: the identity on V0 (theta's keys) plus t1 on V1
    t1 = _t_rows(L, 1)
    theta_t = dict(theta)
    for slot in range(arity):
        theta_t.update(compose(theta, t1, slot))
    c1 = combine((1, _cut(F, 0, o1)), (1, compose(t1, F)), (-1, _cut(theta_t, 0, o1)))
    c2 = combine((1, _cut(theta, 0, o1)), (1, compose(t1, theta)), (-1, _cut(G, 0, o1)))
    res = combine((1, F), (1, _cut(theta_t, o1, top)), (-1, theta), (-1, _cut(G, o1, top)))
    codes, zero = L.spanning_codes(2), vzero(o1)
    for slot in range(arity):
        for key in itertools.product(range(L.dim(0)), repeat=arity - 1):
            objs = _objects(key)
            for a, code in enumerate(codes):
                w, k = (slot, objs, code), key[:slot] + (a,) + key[slot:]
                if mismatch := c1.get(k) or c2.get(k):
                    col.compare("composable", w, dense(o1, mismatch), zero)
                else:
                    yield w, res.get(k, ())


def check_jacobiator(D: Lie3Data) -> Report:
    """Target condition and 2-naturality (in each argument slot) of J."""
    L = D.cat
    col = Collector("jacobiator")
    # [[c1, c2], c3] o J(targets) = J(sources) o ([[c1, c3], c2] + [c1, [c2, c3]])
    F, bi = D._nested
    G = combine((1, F, (0, 2, 1)), (1, bi))

    # target: t J_{xyz} = [[x,z],y] + [x,[y,z]], on basis triples the C2 of
    # the squares (see ``_squares``)
    Jt, zero0 = D._J_table, vzero(L.dim(0))
    c2 = combine((1, _cut(Jt, 0, L.offsets[1])), (1, compose(_t_rows(L, 1), Jt)), (-1, G))
    for key in itertools.product(range(L.dim(0)), repeat=3):
        col.compare("target", _objects(key), dense(L.dim(0), c2.get(key, ())), zero0)

    o1, o2 = L.offsets[1:3]
    z1, z2 = vzero(L.dim(1)), vzero(L.dim(2))
    for w, r in _squares(D, col, F, G, D._J_table, 3):
        col.compare("naturality-v1", w, dense(L.dim(1), ((i - o1, c) for i, c in r if i < o2)), z1)
        col.compare("naturality-v2", w, dense(L.dim(2), ((i - o2, c) for i, c in r if i >= o2)), z2)
    return col.report()


def check_identiator(D: Lie3Data) -> Report:
    """The target condition t mu = eps and the modification law of the
    Identiator.  Its source condition s mu = eta holds for every ``Lie3Data``
    and is not compared: ``_mu_table`` is eta plus mu, and mu lies in V2."""
    L = D.cat
    col = Collector("identiator")

    # t mu = eps
    mu = D._mu_table
    tgt = combine((1, _cut(mu, 0, L.offsets[2])), (1, compose(_t_rows(L, 2), mu)), (-1, D._eta_eps[1]))
    n1, zero1 = L.level_dim(1), vzero(L.level_dim(1))
    for key in itertools.product(range(L.dim(0)), repeat=4):
        col.compare("target", _objects(key), dense(n1, tgt.get(key, ())), zero1)

    # modification law in each slot:
    # F(..alpha..) o mu(targets) = mu(sources) o G(..alpha..), with
    # F = [[[c1,c2],c3],c4] and G the six terms of [[[c1,c2],c3],c4] moved
    # along J: [[c1,c3],[c2,c4]] + [c1,[[c2,c4],c3]] + [[[c1,c4],c3],c2]
    # + [[c1,c4],[c2,c3]] + [[c1,[c3,c4]],c2] + [c1,[c2,[c3,c4]]]
    br, sq = D._bracket_table, (L.offsets[1], 1)  # keys of squares
    bl, bi = D._nested  # [[a,b],c], [a,[b,c]]
    F, P = compose(br, bl, 0, sq), compose(bl, br, 2, sq)  # P = [[a,b],[c,d]]
    G = combine((1, P, (0, 2, 1, 3)), (1, compose(br, bl, 1, sq), (0, 1, 3, 2)),
                (1, F, (0, 3, 2, 1)), (1, P, (0, 3, 1, 2)),
                (1, compose(br, bi, 0, sq), (0, 2, 3, 1)), (1, compose(br, bi, 1, sq)))
    o1, o2, n2, zero = *L.offsets[1:3], L.level_dim(2), vzero(L.level_dim(2))
    for w, res in _squares(D, col, F, G, mu, 4):
        which = "v1" if any(o1 <= i < o2 for i, _ in res) else "v2"
        col.compare(f"modification-{which}", w, dense(n2, res), zero)
    return col.report()


# -- the coherence law ------------------------------------------------


class _Plan:
    """The coherence chains (``_alpha``) traced once on five symbolic 0-cells.

    A node is a leaf (0..4) or an operation on nodes: a bracket of two
    0-cells through the bracket table, any other through its table above V0
    (``Lie3Data._above_v0``; see the module docstring).  Equal operations on
    equal nodes are one node.  An operation with an empty table or a zero
    argument is zero (None), so a dead term's arguments are never evaluated.
    ``alphas`` are each chain's live top terms, ``steps`` the operations that
    they reach, in evaluation order, as (node, table, argument nodes, getter
    of the leaves under it)."""

    def __init__(self, D: Lie3Data):
        self.D, self._ids, self._nodes = D, {}, [(None, (), (p,)) for p in range(5)]
        self.alphas = [[node for factor in _alpha(self, i, *range(5))
                        for op, *args in factor if (node := op(*args)) is not None]
                       for i in (1, 2, 3, 4)]
        live = set(itertools.chain(*self.alphas))
        for n in reversed(range(5, len(self._nodes))):
            if n in live:
                live.update(self._nodes[n][1])
        self.steps = [(n, table, args, operator.itemgetter(*leaves) if len(leaves) < 5 else None)
                      for n, (table, args, leaves) in enumerate(self._nodes) if n in live and n > 4]

    def _op(self, table: dict, *args):
        if not table or None in args:
            return None
        if (node := self._ids.get(key := (id(table), *args))) is None:
            node = self._ids[key] = len(self._nodes)
            self._nodes.append((table, args, tuple(p for a in args for p in self._nodes[a][2])))
        return node

    def run(self, leaves: Iterable[list], key=range(5), memo: dict | None = None) -> list:
        """The four chains as (index, coefficient) pairs on leaves given by
        their supports.  A value under fewer than five leaves is kept in ``memo``
        by its node and the leaves' basis indices in ``key``, for the next call."""
        vals, memo = dict(enumerate(leaves)), {} if memo is None else memo
        for n, table, args, get in self.steps:
            if get is None or (v := memo.get(k := (n, get(key)))) is None:
                v = contract(table, *[vals[a] for a in args])
                if get is not None:
                    memo[k] = v
            vals[n] = v
        return [[p for n in tops for p in vals[n]] for tops in self.alphas]


def _alpha(P: _Plan, i: int, x, y, z, u, v) -> list:
    # the factors of chain i, as lists of terms (op, *args); 1_x of a 0-cell x
    # and 1_f of a 1-cell f are written as x and f, whose flat coordinates they have
    br = functools.partial(P._op, P.D._bracket_table)
    bc1 = bc2 = functools.partial(P._op, P.D._above_v0["br"])
    J, mu = (functools.partial(P._op, P.D._above_v0[k]) for k in ("J", "mu"))

    if i == 1:
        return [
            [(J, br(br(x, y), z), u, v)],
            [(mu, x, y, z, br(u, v)), (bc2, mu(x, y, z, v), u)],
            [(bc1, J(x, br(z, v), y), u), (bc1, J(br(x, v), z, y), u),
             (bc1, J(x, z, br(y, v)), u)],
            [(mu, br(x, v), y, z, u), (mu, x, br(y, v), z, u), (mu, x, y, br(z, v), u)],
        ]
    if i == 4:
        return [
            [(bc2, mu(x, y, z, u), v)],
            [(bc1, J(br(x, u), z, y), v), (bc1, J(x, z, br(y, u)), v),
             (bc1, J(x, br(z, u), y), v)],
            [(mu, br(x, u), y, z, v), (mu, x, br(y, u), z, v), (mu, x, y, br(z, u), v)],
            [(bc1, bc1(J(x, u, v), z), y), (bc1, J(x, u, v), br(y, z)),
             (bc1, x, bc1(J(y, u, v), z)), (bc1, bc1(x, J(z, u, v)), y),
             (bc1, x, bc1(y, J(z, u, v))), (bc1, br(x, z), J(y, u, v))],
        ]
    if i == 3:
        return [
            [(mu, br(x, y), z, u, v)],
            [(bc1, J(br(x, y), v, u), z)],
            [(bc2, mu(x, y, u, v), z)],
            [(bc1, J(x, y, v), br(z, u)), (J, x, y, br(br(z, v), u)),
             (J, x, y, br(z, br(u, v))), (J, br(br(x, v), u), y, z),
             (J, br(x, v), br(y, u), z), (J, br(x, u), br(y, v), z),
             (J, x, br(br(y, v), u), z), (J, br(x, br(u, v)), y, z),
             (J, x, br(y, br(u, v)), z), (bc1, J(x, y, u), br(z, v))],
            [(J, x, br(y, v), br(z, u)), (J, br(x, v), y, br(z, u)),
             (J, x, br(y, u), br(z, v)), (J, br(x, u), y, br(z, v))],
        ]
    if i == 2:
        return [
            [(bc1, bc1(J(x, y, z), u), v)],
            [(mu, br(x, z), y, u, v), (mu, x, br(y, z), u, v)],
            [(bc1, x, J(br(y, z), v, u)), (bc1, J(br(x, z), v, u), y)],
            [(bc2, x, mu(y, z, u, v)), (bc2, mu(x, z, u, v), y)],
            [(bc1, J(x, z, v), br(y, u)), (bc1, J(x, z, u), br(y, v)),
             (bc1, br(x, v), J(y, z, u)), (bc1, br(x, u), J(y, z, v))],
        ]


def alpha_cell(D: Lie3Data, i: int, x, y, z, u, v) -> Cell:
    """The i-th composite 2-cell of the coherence law (i in 1..4).

    Each is a chain of 2-cells composed along 0-cells; the unnamed identity
    paddings are resolved automatically from the composability conditions.
    The plan (``_Plan``) gives its parts above V0; its V0 part is [[[[x,y],z],u],v].
    """
    if i not in (1, 2, 3, 4):
        raise ValueError("i must be in 1..4")
    source = functools.reduce(functools.partial(_br, D, 0), (x, y, z, u, v))
    alphas = D._coherence_plan.run(map(_support, (x, y, z, u, v)))
    return D.cat.unflatten(2, dense(D.cat.level_dim(2), _support(source) + alphas[i - 1]))


def _residual(D: Lie3Data, a1: list, a2: list, a3: list, a4: list) -> Vector:
    """(alpha1 + alpha4^{-1}) - (alpha3 + alpha2^{-1}); the inverse is linear."""
    minus = lambda pairs: [(i, -c) for i, c in pairs]
    return dense(D.cat.level_dim(2), a1 + minus(a3) + _inverse2(D, a4 + minus(a2)))


def coherence_residual(D: Lie3Data, x, y, z, u, v) -> Cell:
    """(alpha1 + alpha4^{-1}) - (alpha3 + alpha2^{-1}) on five 0-cells."""
    return D.cat.unflatten(2, _residual(D, *D._coherence_plan.run(map(_support, (x, y, z, u, v)))))


def check_coherence(D: Lie3Data, tuples=None) -> Report:
    """Coherence law per quintuple of V0 basis vectors.

    Default tuple set: canonical (sorted, repetition allowed) quintuples.
    This rests on an unverified premise: that the residual on the other
    orderings follows from the canonical ones.  That holds when the structure
    satisfies the other laws (the residual is then antisymmetric), but not in
    general: a structure can pass here and fail on all ordered quintuples
    (ROADMAP, open item 1).  Each quintuple is also checked against the
    order-5 residual of the extracted structure constants: its V2 residual
    must equal that left-hand side ("order5-agreement", residual V2 minus
    order-5).  The chains run as one plan per structure (``_Plan``), above V0:
    the residual's V0 block is 0 (see the module docstring).  The order-5
    residual is graded antisymmetric for any antisymmetric brackets, with no
    premise, so it is expanded once per sorted quintuple and read with
    ``graded.canonicalize``'s sign, which is 0 on a repeated 0-cell.
    """
    L, n0 = D.cat, D.cat.dim(0)
    plan, memo, e0 = D._coherence_plan, {}, [[(i, 1)] for i in range(n0)]
    if tuples is None:
        tuples = itertools.combinations_with_replacement(range(n0), 5)
    data, terms, r5s = _raw_linfinity(D), {}, {}  # one degree pattern: its shuffle terms once
    col, zero = Collector("coherence"), vzero(L.level_dim(2))
    for key in tuples:
        w = _objects(key)
        res = _residual(D, *plan.run([e0[i] for i in key], key, memo))
        ckey, sign = canonicalize(w)
        if sign and ckey not in r5s:  # five 0-cells: the residual lies in V2
            accumulate_residual(data, ckey, terms, 1, r5s.setdefault(ckey, {}))
        r5 = ((i, sign * c) for i, c in r5s[ckey].items()) if sign else ()
        col.compare("coherence", w, res, zero)
        col.compare("order5-agreement", w, res[L.level_dim(1):], dense(L.dim(2), r5))
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
