"""Shared generators and independent oracles for the test suite.

Everything here is written against the public API only, and the oracles
(Chevalley-Eilenberg differential, closed-form coherence components) are
coded independently of the library internals they are used to check.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as Q

from shlie3.chain import ChainComplexT
from shlie3.graded import (GradedSpace, GradedVector, MultiMap, Permutation,
                           build_multimap, enumerate_shuffles, koszul_chi)
from shlie3.linalg import Matrix, vis_zero, vzero
from shlie3.linfinity import LInfinityData, degree_tag
from shlie3.report import Failure, Report


def rand_q(rng: random.Random, span: int = 3) -> Q:
    return Q(rng.randint(-span, span))


def rand_vec(rng: random.Random, n: int, span: int = 3):
    return tuple(rand_q(rng, span) for _ in range(n))


def rand_matrix(rng: random.Random, m: int, n: int, span: int = 3) -> Matrix:
    return Matrix([[rand_q(rng, span) for _ in range(n)] for _ in range(m)], ncols=n)


def rand_invertible(rng: random.Random, n: int) -> Matrix:
    """Random invertible matrix built from shears and unit diagonal scalings."""
    P = Matrix.eye(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rand_q(rng, 2)
        rows = [list(r) for r in P.rows]
        rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
        P = Matrix(rows, ncols=n)
    if n and rng.random() < 0.5:
        rows = [list(r) for r in P.rows]
        rows[0] = [-a for a in rows[0]]
        P = Matrix(rows, ncols=n)
    return P


def rand_chain2(rng: random.Random, dims=None) -> ChainComplexT:
    """Random two-term complex (any matrix is a differential)."""
    if dims is None:
        dims = (rng.randint(1, 3), rng.randint(0, 3))
    return ChainComplexT(dims, (rand_matrix(rng, dims[0], dims[1]),))


def rand_chain3(rng: random.Random, dims=None) -> ChainComplexT:
    """Random three-term complex with d1 @ d2 = 0."""
    if dims is None:
        dims = (rng.randint(1, 3), rng.randint(0, 2), rng.randint(0, 2))
    d1 = rand_matrix(rng, dims[0], dims[1])
    null = d1.nullspace()
    cols = []
    for _ in range(dims[2]):
        v = vzero(dims[1])
        for b in null:
            c = rand_q(rng, 2)
            v = tuple(x + c * y for x, y in zip(v, b))
        cols.append(v)
    d2 = Matrix.from_cols(cols, nrows=dims[1])
    return ChainComplexT(dims, (d1, d2))


# -- structure generators ---------------------------------------------

def zero_data(dims=(2, 1, 1)) -> LInfinityData:
    return LInfinityData.zero(GradedSpace(dims))


def l1_only(rng: random.Random, dims=(3, 2, 2)) -> LInfinityData:
    """Random l1 with l1 . l1 = 0 and no higher brackets."""
    C = rand_chain3(rng, dims)
    space = GradedSpace(dims)
    raw = []
    for i in range(dims[1]):
        raw.append(((((1, i),)), C.diff(1).col(i)))
    for i in range(dims[2]):
        raw.append(((((2, i),)), C.diff(2).col(i)))
    l1 = build_multimap(1, -1, space, raw)
    return LInfinityData(space, l1, MultiMap.zero(2, 0, space),
                         MultiMap.zero(3, 1, space), MultiMap.zero(4, 2, space))


def abelian_l3_l4(rng: random.Random, dims=(3, 2, 2)) -> LInfinityData:
    """Zero l1 and l2; random l3 on degree-0 triples and random l4.

    With no unary and binary brackets, the only possibly nonzero identity
    terms are l3-into-l3 at order 5, and those vanish because l3 is
    supported on degree-0 triples only.
    """
    space = GradedSpace(dims)
    raw3 = [(key, rand_vec(rng, dims[1]))
            for key in itertools.combinations(((0, i) for i in range(dims[0])), 3)]
    raw4 = [(key, rand_vec(rng, dims[2]))
            for key in itertools.combinations(((0, i) for i in range(dims[0])), 4)]
    return LInfinityData(space, MultiMap.zero(1, -1, space),
                         MultiMap.zero(2, 0, space),
                         build_multimap(3, 1, space, raw3),
                         build_multimap(4, 2, space, raw4))


# -- two-term data from a Lie algebra and a 4-cochain ------------------

def scaling_brackets(n: int = 5) -> dict[tuple[int, int], dict[int, Q]]:
    """[e0, ek] = ek for k >= 1, all other brackets zero (solvable)."""
    return {(0, k): {k: Q(1)} for k in range(1, n)}


def filiform_brackets() -> dict[tuple[int, int], dict[int, Q]]:
    """[e0,e1]=e2, [e0,e2]=e3, [e0,e3]=e4 (5-dim nilpotent)."""
    return {(0, 1): {2: Q(1)}, (0, 2): {3: Q(1)}, (0, 3): {4: Q(1)}}


def _eval_antisym(c: dict, idxs) -> Q:
    """Evaluate an alternating cochain stored on sorted index tuples."""
    if len(set(idxs)) != len(idxs):
        return Q(0)
    order = sorted(range(len(idxs)), key=lambda p: idxs[p])
    sign = 1
    for a, b in itertools.combinations(range(len(idxs)), 2):
        if order[a] > order[b]:
            sign = -sign
    return sign * c.get(tuple(sorted(idxs)), Q(0))


def ce_differential(brackets: dict, c: dict, n: int, k: int) -> dict:
    """Chevalley-Eilenberg differential of a k-cochain, trivial coefficients.

    (dc)(x_0..x_k) = sum_{p<q} (-1)^{p+q} c([x_p, x_q], x_0..^p..^q..x_k).
    """
    def brk(i, j):
        if i == j:
            return {}
        if (i, j) in brackets:
            return brackets[(i, j)]
        if (j, i) in brackets:
            return {m: -v for m, v in brackets[(j, i)].items()}
        return {}

    out = {}
    for idxs in itertools.combinations(range(n), k + 1):
        total = Q(0)
        for p, q in itertools.combinations(range(k + 1), 2):
            rest = tuple(idxs[r] for r in range(k + 1) if r not in (p, q))
            for m, coeff in brk(idxs[p], idxs[q]).items():
                term = coeff * _eval_antisym(c, (m,) + rest)
                total += term if (p + q) % 2 == 0 else -term
        if total:
            out[idxs] = total
    return out


def ce_cocycles4(brackets: dict, n: int = 5) -> list[dict]:
    """Basis of closed 4-cochains, by exact kernel computation."""
    quads = list(itertools.combinations(range(n), 4))
    quints = list(itertools.combinations(range(n), 5))
    cols = []
    for q in quads:
        dc = ce_differential(brackets, {q: Q(1)}, n, 4)
        cols.append(tuple(dc.get(t, Q(0)) for t in quints))
    D = Matrix.from_cols(cols, nrows=len(quints))
    return [{q: v[j] for j, q in enumerate(quads) if v[j]} for v in D.nullspace()]


def two_term_data(brackets: dict, cochain: dict, n: int = 5) -> LInfinityData:
    """(V_0 = Q^n, V_2 = Q) with the given Lie brackets, trivial action
    and the 4-cochain as l4."""
    space = GradedSpace((n, 0, 1))
    raw2 = [((((0, i), (0, j))), tuple(ev.get(m, Q(0)) for m in range(n)))
            for (i, j), ev in brackets.items()]
    raw4 = [((tuple((0, i) for i in key)), (val,)) for key, val in cochain.items()]
    return LInfinityData(space, MultiMap.zero(1, -1, space),
                         build_multimap(2, 0, space, raw2),
                         MultiMap.zero(3, 1, space),
                         build_multimap(4, 2, space, raw4))


def graded_lie_data(brackets: dict, n: int) -> LInfinityData:
    """g tensor (Q + Q.xi) with xi odd: dims (n, n, 0), strict graded Lie.

    [x 1, y 1] = [x,y] 1,  [x 1, y xi] = [x,y] xi,  [x xi, y xi] = 0.
    """
    space = GradedSpace((n, n, 0))

    def col(ev, m):
        return tuple(ev.get(k, Q(0)) for k in range(m))

    raw = []
    for (i, j), ev in brackets.items():
        raw.append((((0, i), (0, j)), col(ev, n)))
        raw.append((((0, i), (1, j)), col(ev, n)))
        # the (1, i), (0, j) values follow by antisymmetry of the (0,1) keys
        raw.append((((0, j), (1, i)), tuple(-c for c in col(ev, n))))
    return LInfinityData(space, MultiMap.zero(1, -1, space),
                         build_multimap(2, 0, space, raw),
                         MultiMap.zero(3, 1, space), MultiMap.zero(4, 2, space))


def non_jacobi_data() -> LInfinityData:
    """[e0,e1] = e0, [e1,e2] = e1, [e0,e2] = e2 on V0 = Q^3: fails Jacobi."""
    space = GradedSpace((3, 0, 0))
    raw = [((((0, 0), (0, 1))), (Q(1), Q(0), Q(0))),
           ((((0, 1), (0, 2))), (Q(0), Q(1), Q(0))),
           ((((0, 0), (0, 2))), (Q(0), Q(0), Q(1)))]
    return LInfinityData(space, MultiMap.zero(1, -1, space), build_multimap(2, 0, space, raw),
                         MultiMap.zero(3, 1, space), MultiMap.zero(4, 2, space))


# -- basis conjugation -------------------------------------------------

def conjugate(data: LInfinityData, mats: list[Matrix]) -> LInfinityData:
    """Transport all brackets along the degree-preserving isomorphism
    phi(e_{d,i}) = mats[d] column i:  l'_k = phi^{-1} l_k phi^k."""
    space = data.space
    phi = {d: mats[d] for d in range(len(space.dims))}

    def transported(m: MultiMap) -> MultiMap:
        raw = []
        for key in itertools.combinations_with_replacement(space.basis(), m.arity):
            args = [GradedVector.from_component(space, d, phi[d].col(i))
                    for d, i in key]
            out = m.eval(args)
            od = sum(d for d, _ in key) + m.weight
            if not (0 <= od <= space.top_degree):
                continue
            block = out.component(od)
            val = phi[od].solve(block)
            assert val is not None
            if not vis_zero(val):
                raw.append((key, val))
        return build_multimap(m.arity, m.weight, space, raw)

    return LInfinityData(space, transported(data.l1), transported(data.l2),
                         transported(data.l3), transported(data.l4))


def rand_conjugate(rng: random.Random, data: LInfinityData) -> LInfinityData:
    mats = [rand_invertible(rng, d) for d in data.space.dims]
    return conjugate(data, mats)


def special_valid_samples(rng: random.Random, count: int) -> list[LInfinityData]:
    """Catalog of valid data with zero V1xV1 bracket and no degree-1 l3."""
    out = []
    closed = ce_cocycles4(scaling_brackets(4), 4)
    while len(out) < count:
        kind = len(out) % 4
        if kind == 0:
            base = l1_only(rng, (rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 2)))
        elif kind == 1:
            base = abelian_l3_l4(rng, (rng.randint(2, 3), rng.randint(1, 2), rng.randint(1, 2)))
        elif kind == 2:
            c = {}
            for b in closed:
                s = rand_q(rng, 2)
                for k, v in b.items():
                    c[k] = c.get(k, Q(0)) + s * v
            base = two_term_data(scaling_brackets(4), c, 4)
        else:
            base = zero_data((rng.randint(1, 2), rng.randint(0, 2), rng.randint(0, 2)))
        out.append(rand_conjugate(rng, base))
    return out


def rand_brackets(rng: random.Random, dims=(2, 1, 1), density: float = 0.5) -> LInfinityData:
    """Arbitrary (generally invalid) l1..l4 with random constants, so that
    every term of every identity can contribute."""
    space = GradedSpace(dims)
    maps = []
    for arity, weight in ((1, -1), (2, 0), (3, 1), (4, 2)):
        raw = []
        for key in itertools.combinations_with_replacement(space.basis(), arity):
            od = sum(d for d, _ in key) + weight
            if any(a == b and a[0] % 2 == 0 for a, b in zip(key, key[1:])):
                continue
            if 0 <= od <= 2 and space.dims[od] and rng.random() < density:
                raw.append((key, rand_vec(rng, dims[od], 2)))
        maps.append(build_multimap(arity, weight, space, raw))
    return LInfinityData(space, *maps)


# -- the seed evaluation and identity checks, kept as the oracle -------
#
# Evaluation goes through the canonical entries (``MultiMap.coeffs``) and
# the chi sign, term by term on GradedVectors, exactly as the library did
# before brackets were compiled into index tables.

def seed_eval_basis(m: MultiMap, key) -> GradedVector:
    n = len(key)
    order = sorted(range(n), key=lambda p: key[p])
    ckey = tuple(key[p] for p in order)
    if any(a == b and a[0] % 2 == 0 for a, b in zip(ckey, ckey[1:])):
        return GradedVector.zero(m.space)
    od = m.output_degree(ckey)
    if od is None or ckey not in m.coeffs:
        return GradedVector.zero(m.space)
    inv = [0] * n
    for k, p in enumerate(order):
        inv[p] = k + 1
    sign = koszul_chi(Permutation(tuple(inv)), [d for d, _ in ckey])
    return GradedVector.from_component(m.space, od, [sign * c for c in m.coeffs[ckey]])


def seed_eval(m: MultiMap, args) -> GradedVector:
    """Sum of coefficient products times ``seed_eval_basis``."""
    out = GradedVector.zero(m.space)
    supports = [[((d, i), c) for d in range(len(a.coords))
                 for i, c in enumerate(a.coords[d]) if c] for a in args]
    for combo in itertools.product(*supports):
        c = Q(1)
        for _, coeff in combo:
            c *= coeff
        out = out + seed_eval_basis(m, tuple(b for b, _ in combo)).scale(c)
    return out


def seed_linfty_residual(data: LInfinityData, n: int, args) -> GradedVector:
    degrees = []
    for a in args:
        d = a.degree()
        assert d is not None or a.is_zero(), "arguments must be homogeneous"
        degrees.append(0 if d is None else d)
    out = GradedVector.zero(data.space)
    for i in range(1, n + 1):
        j = n + 1 - i
        li, lj = data.bracket(i), data.bracket(j)
        if li is None or lj is None:
            continue
        coeff = -1 if (i * (j - 1)) % 2 else 1
        for sigma in enumerate_shuffles(i, n - i):
            chi = koszul_chi(sigma, degrees)
            perm = sigma.apply(list(args))
            inner = seed_eval(li, list(perm[:i]))
            term = seed_eval(lj, [inner] + list(perm[i:]))
            out = out + term.scale(chi * coeff)
    return out


def seed_canonical_tuples(space: GradedSpace, n: int):
    for key in itertools.combinations_with_replacement(space.basis(), n):
        if not any(a == b and a[0] % 2 == 0 for a, b in zip(key, key[1:])):
            yield key


def seed_check_condition(data: LInfinityData, n: int) -> Report:
    """Every canonical tuple evaluated, none skipped; a failure's residual is
    the nonzero degree block of the left-hand side."""
    failures = []
    keys = []
    for key in seed_canonical_tuples(data.space, n):
        args = [GradedVector.basis_vector(data.space, d, i) for d, i in key]
        keys.append(key)
        res = seed_linfty_residual(data, n, args)
        if not res.is_zero():
            block = next(b for b in res.coords if any(b))
            failures.append(Failure(degree_tag(n, key), key, block))
    return Report(f"order-{n}", tuple(failures), tuple(keys))


# -- the seed dense linear algebra, kept as the oracle -----------------
#
# Every entry is multiplied, zeros included, exactly as ``Matrix`` did
# before products, Kronecker products and elimination skipped zeros.

def seed_matmul(A: Matrix, B: Matrix) -> Matrix:
    cols = B.transpose().rows
    return Matrix([[sum((a * b for a, b in zip(row, col)), Q(0)) for col in cols]
                   for row in A.rows], ncols=B.ncols)


def seed_kron(A: Matrix, B: Matrix) -> Matrix:
    return Matrix([[a * b for a in r1 for b in r2] for r1 in A.rows for r2 in B.rows],
                  ncols=A.ncols * B.ncols)


def seed_rref(A: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    rows = [list(r) for r in A.rows]
    pivots = []
    pr = 0
    for pc in range(A.ncols):
        pivot_row = next((r for r in range(pr, A.nrows) if rows[r][pc] != 0), None)
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = Q(1) / rows[pr][pc]
        rows[pr] = [inv * e for e in rows[pr]]
        for r in range(A.nrows):
            if r != pr and rows[r][pc] != 0:
                f = rows[r][pc]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == A.nrows:
            break
    return Matrix(rows, ncols=A.ncols), tuple(pivots)


def seed_solve_matrix(A: Matrix, B: Matrix) -> Matrix | None:
    """One elimination of [A | b] per column b of B, free variables zero."""
    cols = []
    for j in range(B.ncols):
        R, pivots = seed_rref(Matrix([list(r) + [b] for r, b in zip(A.rows, B.col(j))],
                                     ncols=A.ncols + 1))
        if A.ncols in pivots:
            return None
        x = [Q(0)] * A.ncols
        for r, pc in enumerate(pivots):
            x[pc] = R.rows[r][A.ncols]
        cols.append(tuple(x))
    return Matrix.from_cols(cols, nrows=A.ncols)


def seed_quotient_basis(sub, space_dim: int) -> list[int]:
    """Greedy completion: keep e_i when it raises the rank (two ranks per i)."""
    cols = list(sub)
    chosen = []
    for i, e in enumerate(Matrix.eye(space_dim).cols()):
        trial = cols + [e]
        if (len(seed_rref(Matrix.from_cols(trial, nrows=space_dim))[1])
                > len(seed_rref(Matrix.from_cols(cols, nrows=space_dim))[1])):
            cols.append(e)
            chosen.append(i)
    return chosen


def sparse_matrix(rng: random.Random, m: int, n: int, zero_share: float) -> Matrix:
    """Random rational matrix whose entries are zero with probability zero_share."""
    return Matrix([[Q(0) if rng.random() < zero_share else Q(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(n)] for _ in range(m)], ncols=n)
