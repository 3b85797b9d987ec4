"""Shared generators and independent oracles for the test suite.

Everything here is written against the public API only, and the oracles
(Chevalley-Eilenberg differential, closed-form coherence components) are
coded independently of the library internals they are used to check.  The
exceptions are ``J_cell`` and ``inverse2``, which evaluate a cell through the
library's internal tables and sparse inverse, for the tests to check.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction as Q
from math import prod

from shlie3 import lie3
from shlie3.chain import ChainComplexT
from shlie3.graded import (GradedSpace, GradedVector, MultiMap, Permutation,
                           build_multimap, check_signatures)
from shlie3.lie3 import bracket_cells
from shlie3.lincat import Cell, ComposabilityError, LinearNCat, to_chain
from shlie3.linalg import Matrix, contract, dense, vadd, vis_zero, vscale, vzero
from shlie3.linfinity import LInfinityData, accumulate_residual, degree_tag
from shlie3.report import Collector, Failure, Report
from shlie3.simplicial import SimplicialVS


# -- small constructions that only the tests use ----------------------

def enumerate_shuffles(i: int, j: int) -> list[Permutation]:
    """(i,j)-shuffles of {1..i+j}, lexicographic in the first block."""
    if i < 0 or j < 0 or i + j < 1:
        raise ValueError("need i, j >= 0 with i + j >= 1")
    n = i + j
    out = []
    universe = range(1, n + 1)
    for first in itertools.combinations(universe, i):
        rest = tuple(k for k in universe if k not in first)
        out.append(Permutation(first + rest))
    return out


def block_diag(mats) -> Matrix:
    total_r = sum(m.nrows for m in mats)
    total_c = sum(m.ncols for m in mats)
    out = [[Q(0)] * total_c for _ in range(total_r)]
    r0 = c0 = 0
    for m in mats:
        for i, row in enumerate(m.rows):
            for j, e in enumerate(row):
                out[r0 + i][c0 + j] = e
        r0 += m.nrows
        c0 += m.ncols
    return Matrix(out, ncols=total_c)


def constant_svs(N: int) -> SimplicialVS:
    """The constant simplicial line: every level is the ground field."""
    eye = Matrix.eye(1)
    return SimplicialVS.from_maps((1,) * (N + 1), lambda n, i: eye, lambda n, i: eye)


def unit_category(n: int) -> LinearNCat:
    space = GradedSpace((1,) + (0,) * n)
    return LinearNCat(space, MultiMap.zero(1, -1, space))


def zero_cell(L: LinearNCat, m: int) -> Cell:
    return L.unflatten(m, vzero(L.level_dim(m)))


def basis_cell(L: LinearNCat, m: int, d: int, i: int) -> Cell:
    return SeedCat(L).coded_cell(tuple(i if k == d else None for k in range(m + 1)))


def kernel_bases(tc) -> tuple[tuple, ...]:
    """Basis of ker S_m in raw L_m (x) M_m, per level: the last columns of
    tc.lift[m], for tc a ``TensorCat``."""
    return tuple(tuple(B.cols()[tc.cat.offsets[m]:]) for m, B in enumerate(tc.lift))


def from_four_cocycle(bracket: MultiMap, action: MultiMap, cochain: MultiMap) -> LInfinityData:
    """Assemble (V, l2 = bracket + action, l3 = 0, l4 = cochain) with V_1 = 0.

    The caller decides validity by running the order 1..5 checks: n=3 is the
    Jacobi identity, n=4 the representation law, n=5 the cocycle law.
    """
    space = bracket.space
    if space.dims[1] != 0:
        raise ValueError("the two-term construction requires dim V_1 = 0")
    check_signatures(space, (("bracket", bracket, 2, 0), ("action", action, 2, 0),
                             ("cochain", cochain, 4, 2)))
    for key, _ in bracket.entries():
        if any(d != 0 for d, _ in key):
            raise ValueError("bracket entries must be on V0 x V0")
    for key, _ in action.entries():
        if sorted(d for d, _ in key) != [0, 2]:
            raise ValueError("action entries must pair V0 with V2")
    for key, _ in cochain.entries():
        if any(d != 0 for d, _ in key):
            raise ValueError("cochain entries must be on V0^4")
    return LInfinityData(space, MultiMap.zero(1, -1, space), bracket + action,
                         MultiMap.zero(3, 1, space), cochain)


def linfty_residual(data: LInfinityData, n: int, args) -> GradedVector:
    """Left-hand side of the order-n identity on homogeneous vectors, expanded
    over basis tuples and summed with the library's ``accumulate_residual``."""
    if len(args) != n:
        raise ValueError(f"order {n} needs {n} arguments")
    for a in args:
        if a.space != data.space:
            raise ValueError("argument from a different space")
        if a.degree() is None and not a.is_zero():
            raise ValueError("arguments must be homogeneous")
    terms, out, r = {}, {}, 0
    for combo in itertools.product(*(a.support() for a in args)):
        r = accumulate_residual(data, tuple(b for b, _ in combo), terms,
                                prod(c for _, c in combo), out)
    return GradedVector.from_support(data.space, (((r, b), v) for b, v in out.items()))


def chain_iso_invariants(L: LinearNCat) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Dims and differential ranks; complexes over Q are isomorphic iff equal."""
    C = to_chain(L)
    return C.dims, tuple(C.diff(d).rank() for d in range(1, L.n + 1))


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

def seed_chi(images, degrees) -> int:
    """The sign chi of ``graded.koszul_chi``, computed apart from it: sort the
    permuted arguments (1-based ``images``) back into order by adjacent swaps,
    each of which contributes -(-1)^(d * d') for the degrees d and d' of the
    two arguments that it swaps.  ``degrees`` are those of the unpermuted
    arguments."""
    seq, sign = list(images), 1
    for end in range(len(seq) - 1, 0, -1):
        for k in range(end):
            if seq[k] > seq[k + 1]:
                seq[k], seq[k + 1] = seq[k + 1], seq[k]
                sign *= -(-1) ** (degrees[seq[k] - 1] * degrees[seq[k + 1] - 1])
    return sign


def seed_canonicalize(key) -> tuple[tuple, int]:
    """(sorted key, sign) with m(key) == sign * m(sorted key), the sign being
    ``seed_chi`` of the permutation that sorts ``key``; 0 when an
    even-degree basis element repeats."""
    n = len(key)
    order = sorted(range(n), key=lambda p: key[p])
    ckey = tuple(key[p] for p in order)
    if any(a == b and a[0] % 2 == 0 for a, b in zip(ckey, ckey[1:])):
        return ckey, 0
    inv = [0] * n
    for k, p in enumerate(order):
        inv[p] = k + 1
    return ckey, seed_chi(inv, [d for d, _ in ckey])


def seed_eval_basis(m: MultiMap, key) -> GradedVector:
    ckey, sign = seed_canonicalize(key)
    od = m.output_degree(ckey)
    if not sign or od is None or ckey not in m.coeffs:
        return GradedVector.zero(m.space)
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
            chi = seed_chi(sigma.images, degrees)
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
    the nonzero degree block of the left-hand side.  Only the tuples whose
    residual degree sum(d_i) + n - 3 is in the grading are listed in
    ``checked``, as the library lists them; a nonzero residual on another
    tuple is still a failure, which the library's report would lack."""
    failures = []
    keys = []
    for key in seed_canonical_tuples(data.space, n):
        args = [GradedVector.basis_vector(data.space, d, i) for d, i in key]
        if 0 <= sum(d for d, _ in key) + n - 3 <= data.space.top_degree:
            keys.append(key)
        res = seed_linfty_residual(data, n, args)
        if not res.is_zero():
            block = next(b for b in res.coords if any(b))
            failures.append(Failure(degree_tag(n, key), key, block))
    return Report(f"order-{n}", tuple(failures), tuple(keys))


# -- the seed dense linear algebra, kept as the oracle -----------------
#
# Fraction-only, on plain rows: every entry is read as a Fraction, every
# entry is multiplied, zeros included, and every pivot row is divided by its
# pivot, exactly as ``Matrix`` did before products, Kronecker products and
# elimination skipped zeros and integral entries became ints.  The results
# are tuples of Fraction rows (or vectors), to compare with ``Matrix.rows``.

def transpose(A: Matrix) -> Matrix:
    return Matrix([A.col(j) for j in range(A.ncols)], ncols=A.nrows)


def seed_rows(A: Matrix) -> list[list[Q]]:
    return [[Q(e) for e in r] for r in A.rows]


def seed_matmul(A: Matrix, B: Matrix) -> tuple:
    cols = seed_rows(transpose(B))
    return tuple(tuple(sum((a * b for a, b in zip(row, col)), Q(0)) for col in cols)
                 for row in seed_rows(A))


def seed_kron(A: Matrix, B: Matrix) -> tuple:
    return tuple(tuple(a * b for a in r1 for b in r2)
                 for r1 in seed_rows(A) for r2 in seed_rows(B))


def _seed_reduce(rows: list[list[Q]], ncols: int) -> tuple[tuple, tuple[int, ...]]:
    """Reduced row echelon form of Fraction rows, and its pivot columns."""
    pivots = []
    pr = 0
    for pc in range(ncols):
        pivot_row = next((r for r in range(pr, len(rows)) if rows[r][pc] != 0), None)
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = Q(1) / rows[pr][pc]
        rows[pr] = [inv * e for e in rows[pr]]
        for r in range(len(rows)):
            if r != pr and rows[r][pc] != 0:
                f = rows[r][pc]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(rows):
            break
    return tuple(map(tuple, rows)), tuple(pivots)


def seed_rref(A: Matrix) -> tuple[tuple, tuple[int, ...]]:
    return _seed_reduce(seed_rows(A), A.ncols)


def seed_nullspace(A: Matrix) -> list[tuple]:
    """One kernel vector per free column: 1 there, minus the reduced column
    at the pivots."""
    R, pivots = seed_rref(A)
    basis = []
    for j in (j for j in range(A.ncols) if j not in pivots):
        v = [Q(0)] * A.ncols
        v[j] = Q(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][j]
        basis.append(tuple(v))
    return basis


def seed_solve_matrix(A: Matrix, B: Matrix) -> tuple | None:
    """One elimination of [A | b] per column b of B, free variables zero."""
    cols = []
    for j in range(B.ncols):
        R, pivots = _seed_reduce([r + [Q(b)] for r, b in zip(seed_rows(A), B.col(j))],
                                 A.ncols + 1)
        if A.ncols in pivots:
            return None
        x = [Q(0)] * A.ncols
        for r, pc in enumerate(pivots):
            x[pc] = R[r][A.ncols]
        cols.append(x)
    return tuple(tuple(x[i] for x in cols) for i in range(A.ncols))


def seed_left_inverse(A: Matrix) -> tuple | None:
    """The last rows of the reduced [A | I], when A's columns are independent."""
    n = A.nrows
    R, pivots = _seed_reduce([r + [Q(int(i == k)) for k in range(n)]
                              for i, r in enumerate(seed_rows(A))], A.ncols + n)
    if pivots[:A.ncols] != tuple(range(A.ncols)):
        return None
    return tuple(r[A.ncols:] for r in R[:A.ncols])


def seed_quotient_basis(sub, space_dim: int) -> list[int]:
    """Greedy completion: keep e_i when it raises the rank (two ranks per i)."""
    rank = lambda cols: len(_seed_reduce([[Q(c[i]) for c in cols] for i in range(space_dim)],
                                         len(cols))[1])
    cols = list(sub)
    chosen = []
    for i in range(space_dim):
        e = tuple(Q(int(k == i)) for k in range(space_dim))
        if rank(cols + [e]) > rank(cols):
            cols.append(e)
            chosen.append(i)
    return chosen


def sparse_matrix(rng: random.Random, m: int, n: int, zero_share: float) -> Matrix:
    """Random rational matrix whose entries are zero with probability zero_share."""
    return Matrix([[Q(0) if rng.random() < zero_share else Q(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(n)] for _ in range(m)], ncols=n)


def flat(x) -> tuple:
    """The flat coordinates of a cell (its components in order) or a vector."""
    return tuple(itertools.chain(*x.components)) if isinstance(x, Cell) else tuple(x)


# The comparisons of the seed checks that the library no longer makes,
# because they hold for every structure it accepts (see the docstrings of
# ``check_bifunctor`` and ``check_identiator``), by check name.
RETIRED = {"bifunctor": {"source", "identity", "kernel-bracket [f,g]=[f,1_tg]",
                         "kernel-bracket [1_f,b]=0", "kernel-bracket [a,b]=0",
                         "kernel-bracket [1_ta,b]=0", "kernel-bracket [a,1_tb]=0"},
           "identiator": {"source"}}


def retired_failures(reports) -> list:
    """The failures of retired comparisons (``RETIRED``) in ``reports``."""
    return [f for rep in reports for f in rep.failures if f.identity in RETIRED.get(rep.name, ())]


class SeedCollector(Collector):
    """A ``Collector`` whose comparisons may take cells: it compares and
    subtracts their flat coordinates, as the library's checks do.  A retired
    comparison (``RETIRED``) is made and its failure recorded, but its witness
    is listed in ``checked`` only where a kept comparison is made on it, as
    the library lists it."""

    def compare(self, identity: str, witness: tuple, lhs, rhs) -> None:
        n = len(self.checked)
        super().compare(identity, witness, flat(lhs), flat(rhs))
        if identity in RETIRED.get(self.name, ()) and len(self.checked) > n:
            self.checked.pop()


# -- the seed spanning families of cells and composable pairs ----------
#
# Products of zero-or-basis options in every slot, exactly as the library
# enumerated them before one basis of composable pairs replaced them.

def seed_spanning_codes(L, m: int) -> list[tuple]:
    """Codes of the m-cells whose components are basis vectors or zero, all mixes."""
    return list(itertools.product(*([None, *range(L.dim(k))] for k in range(m + 1))))


def seed_spanning_cells(L, m: int):
    return map(SeedCat(L).coded_cell, seed_spanning_codes(L, m))


def seed_tail_codes(L, m: int, p: int) -> list[tuple]:
    """Zero-or-basis free parts of p-composable right factors, the zero one first."""
    return [c for c in seed_spanning_codes(L, m) if all(i is None for i in c[:p + 1])]


def seed_pad_composable(L, a, tail, p: int):
    """The p-composable right factor of a with free components p+1..m given by tail."""
    forced = SeedCat(L).target_iter(a, a.level - p)
    return Cell(a.level, forced.components + tuple(tuple(Q(c) for c in t) for t in tail))


def seed_spanning_pairs(L, m: int, p: int):
    tails = [SeedCat(L).coded_cell(c) for c in seed_tail_codes(L, m, p)]
    for a in seed_spanning_cells(L, m):
        for t in tails:
            yield a, seed_pad_composable(L, a, t.components[p + 1:], p)


def seed_bifunctor_factors(L, m: int, p: int) -> list[tuple]:
    """``((code of v, code of t), v, v')`` with v and t each zero or one basis
    vector: the composable pairs of the bifunctor composition check."""
    zero = (None,) * (m + 1)
    opts = [zero] + [tuple(i if k == d else None for k in range(m + 1))
                     for d in range(m + 1) for i in range(L.dim(d))]
    tails = [c for c in opts if all(i is None for i in c[:p + 1])]
    C, out = SeedCat(L), []
    for cv in opts:
        v = C.coded_cell(cv)
        for ct in tails:
            out.append(((cv, ct), v, seed_pad_composable(L, v, C.coded_cell(ct).components[p + 1:], p)))
    return out


def seed_tensor_identity_residual(L, tc, v, w, vp, wp) -> tuple:
    """(v o w) (x) (v' o w') minus (v (x) v') o (w (x) w')
    + (v - 1_{tv}) (x) w'_ker + w_ker (x) (v' - 1_{tv'}), in raw coordinates."""
    C, n0, n1 = SeedCat(L), L.dim(0), L.dim(1)
    tensor = lambda x, y: tuple(a * b for a in x for b in y)
    ker = lambda c: vzero(n0) + c.components[1]
    deficit = lambda c: tuple(a - b for a, b in
                              zip(flat(c), C.target(c).components[0] + vzero(n1)))
    lhs = tensor(flat(C.compose(v, w, 0)), flat(C.compose(vp, wp, 0)))
    one_col = lambda x: Matrix.from_cols([x])
    rhs = tc.compose_raw(one_col(tensor(flat(v), flat(vp))), one_col(tensor(flat(w), flat(wp))),
                         1, 0).col(0)
    rhs = tuple(a + b + c for a, b, c in zip(rhs, tensor(deficit(v), ker(wp)),
                                             tensor(ker(w), deficit(vp))))
    return tuple(a - b for a, b in zip(lhs, rhs))


def seed_tensor_identity_pairs(L) -> list[tuple]:
    """``((code of v, code of t), v, w)``: v any zero-or-basis mix of 1-cells,
    w its 0-composable right factor with free part t zero or one basis vector."""
    C, out = SeedCat(L), []
    for cv in seed_spanning_codes(L, 1):
        v = C.coded_cell(cv)
        for ct in seed_tail_codes(L, 1, 0):
            out.append(((cv, ct), v, seed_pad_composable(L, v, C.coded_cell(ct).components[1:], 0)))
    return out


def seed_compose_tensor_identity(L, tc) -> bool:
    """The identity on every pair of ``seed_tensor_identity_pairs`` (4096 on a (3, 3) complex)."""
    pairs = [(v, w) for _, v, w in seed_tensor_identity_pairs(L)]
    return all(not any(seed_tensor_identity_residual(L, tc, v, w, vp, wp))
               for v, w in pairs for vp, wp in pairs)


def seed_axioms_hold(L, compose) -> bool:
    """Every category axiom (globularity, boundaries, units, identities of
    composites, associativity, interchange) with a composition that, like
    ``LinearNCat.compose``, takes (m, a, b, p) on flat cells, on the products
    of zero-or-basis cells and zero-or-basis free parts; the structure maps
    are the component formulas (``SeedCat``).  With ``L.compose`` every axiom
    holds by the component formulas (see ``lincat``)."""
    L = SeedCat(L)
    cells = [list(seed_spanning_cells(L, m)) for m in range(L.n + 1)]

    def comp(a, b, p):
        return L.unflatten(a.level, compose(a.level, flat(a), flat(b), p))

    def right(a, t, p):
        return seed_pad_composable(L, a, t.components[p + 1:], p)

    tails = {(m, p): [L.coded_cell(c) for c in seed_tail_codes(L, m, p)]
             for m in range(1, L.n + 1) for p in range(m)}

    ok = all(L.source(L.source(a)) == L.source(L.target(a))
             and L.target(L.source(a)) == L.target(L.target(a))
             for m in range(2, L.n + 1) for a in cells[m])
    ok &= all(L.source(L.identity(a)) == a == L.target(L.identity(a))
              for m in range(L.n) for a in cells[m])
    for m in range(1, L.n + 1):
        for p in range(m):
            k = m - p
            for a in cells[m]:
                ok &= comp(L.identity_iter(L.source_iter(a, k), k), a, p) == a
                ok &= comp(a, L.identity_iter(L.target_iter(a, k), k), p) == a
                for tb in tails[m, p]:
                    b = right(a, tb, p)
                    ab = comp(a, b, p)
                    if p == m - 1:
                        ok &= L.source(ab) == L.source(a) and L.target(ab) == L.target(b)
                    else:
                        ok &= (L.source(ab) == comp(L.source(a), L.source(b), p)
                               and L.target(ab) == comp(L.target(a), L.target(b), p))
                    if m < L.n:
                        ok &= L.identity(ab) == comp(L.identity(a), L.identity(b), p)
                    for tc in tails[m, p]:
                        c = right(b, tc, p)
                        ok &= comp(ab, c, p) == comp(a, comp(b, c, p), p)
            for q in range(p):
                for a in cells[m]:
                    for tb, tc, td in itertools.product(tails[m, p], tails[m, q], tails[m, p]):
                        b, c = right(a, tb, p), right(a, tc, q)
                        d = right(c, td, p)
                        try:
                            ok &= (comp(comp(a, b, p), comp(c, d, p), q)
                                   == comp(comp(a, c, q), comp(b, d, q), p))
                        except ComposabilityError:
                            ok = False
    return ok


# -- the Cell-based categorical checks, kept as the oracle --------------
#
# The structure maps by their component formulas on ``Cell``s, and the
# bifunctor, Jacobiator, Identiator and coherence checks written on them,
# exactly as the library ran them before the checks moved to flat
# coordinate tuples.  The Jacobiator and Identiator cells are their
# component formulas below, evaluated on the bracket constants, J and mu;
# the bracket of cells is the library's public one, whose table is checked
# against ``bracket_formula`` separately.


def bracket_formula(D, a, b) -> Cell:
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
    tg = vadd(y, D.cat.t_matrix(1).apply(g))
    v1 = vadd(l2([(0, x), (1, g)]), l2([(1, f), (0, tg)]))
    if m == 1:
        return Cell(1, (v0, v1))
    a2, b2 = a.components[2], b.components[2]
    v2 = vadd(l2([(0, x), (2, b2)]), l2([(2, a2), (0, y)]))
    return Cell(2, (v0, v1, v2))


def bracket_objects(D, x, y):
    """[x, y] of two 0-cells: the bracket of cells at level 0."""
    C = SeedCat(D.cat)
    return bracket_cells(D, C.cell_from_v0(x), C.cell_from_v0(y)).components[0]


def J_cell(D, x, y, z) -> Cell:
    """The 1-cell ([[x,y],z], J(x,y,z)) evaluated from the structure's
    tabulated Jacobiator (``Lie3Data._J_table``)."""
    pairs = contract(D._J_table, *map(lie3._support, (x, y, z)))
    return D.cat.unflatten(1, dense(D.cat.level_dim(1), pairs))


def inverse2(D, alpha: Cell) -> Cell:
    """(A,s,a) -> (A, s + l1 a, -a), the inverse along 1-cells, evaluated by
    the library's sparse inverse of the coherence check."""
    L = D.cat
    return L.unflatten(2, dense(L.level_dim(2), lie3._inverse2(D, list(enumerate(L.flatten(alpha))))))


def J_formula(D, x, y, z) -> Cell:
    """The Jacobiator 1-cell ([[x,y],z], J(x,y,z)) in components."""
    l2 = lambda p, q: D.bracket_constants.eval_blocks([(0, p), (0, q)])
    return Cell(1, (l2(l2(x, y), z), D.J.eval_blocks([(0, x), (0, y), (0, z)])))


def mu_formula(D, x, y, z, u) -> Cell:
    """The Identiator 2-cell in components.  Composition along 0-cells adds
    V1 parts and identity paddings have none, so eta's V1 part is the sum of
    the V1 parts of its four factors: [J_xyz, u] + J_{[x,z],y,u}
    + J_{x,[y,z],u} + [J_xzu, y] + [x, J_yzu]."""
    l2, J = D.bracket_constants.eval_blocks, D.J.eval_blocks
    br = lambda p, q: l2([(0, p), (0, q)])
    j1 = lambda a, b, c: J([(0, a), (0, b), (0, c)])
    v1 = functools.reduce(vadd, [
        l2([(1, j1(x, y, z)), (0, u)]), j1(br(x, z), y, u), j1(x, br(y, z), u),
        l2([(1, j1(x, z, u)), (0, y)]), l2([(0, x), (1, j1(y, z, u))])])
    mv = D.mu.eval_blocks([(0, w) for w in (x, y, z, u)])
    return Cell(2, (br(br(br(x, y), z), u), v1, mv))

class SeedCat:
    """A LinearNCat whose source, target, identity and composition are the
    component formulas on cells; everything else is the wrapped category's."""

    def __init__(self, L):
        self.L = L

    def __getattr__(self, name):
        return getattr(self.L, name)

    def source(self, a):
        if a.level < 1:
            raise ValueError("0-cells have no source")
        return Cell(a.level - 1, a.components[:-1])

    def target(self, a):
        if a.level < 1:
            raise ValueError("0-cells have no target")
        m = a.level
        moved = vadd(a.components[m - 1], self.L.t_matrix(m).apply(a.components[m]))
        return Cell(m - 1, a.components[: m - 1] + (moved,))

    def identity(self, a):
        if a.level >= self.L.n:
            raise ValueError("no identities above the top level")
        return Cell(a.level + 1, a.components + (vzero(self.L.dim(a.level + 1)),))

    def source_iter(self, a, k):
        for _ in range(k):
            a = self.source(a)
        return a

    def target_iter(self, a, k):
        for _ in range(k):
            a = self.target(a)
        return a

    def identity_iter(self, a, k):
        for _ in range(k):
            a = self.identity(a)
        return a

    def cell_from_v0(self, v0, level=0):
        return Cell(level, (tuple(Q(c) for c in v0),)
                    + tuple(vzero(self.L.dim(i)) for i in range(1, level + 1)))

    def coded_cell(self, code):
        return Cell(len(code) - 1, tuple(tuple(Q(int(j == i)) for j in range(self.L.dim(k)))
                                         for k, i in enumerate(code)))

    def composable(self, a, b, p):
        if a.level != b.level or not (0 <= p < a.level):
            return False
        k = a.level - p
        return self.target_iter(a, k) == self.source_iter(b, k)

    def compose(self, a, b, p):
        if a.level != b.level:
            raise ComposabilityError("levels differ", a, b)
        m = a.level
        if not (0 <= p < m):
            raise ComposabilityError(f"p={p} out of range for level {m}", a, b)
        if not self.composable(a, b, p):
            raise ComposabilityError(f"cells are not composable along a {p}-cell",
                                     self.target_iter(a, m - p), self.source_iter(b, m - p))
        return Cell(m, a.components[: p + 1] + tuple(
            vadd(x, y) for x, y in zip(a.components[p + 1:], b.components[p + 1:])))

    def right_factor(self, a, code, p):
        k = a.level - p
        return self.identity_iter(self.target_iter(a, k), k) + self.coded_cell(code)

    def compose_via_units(self, a, b, p):
        """Composition re-derived from linearity and the unit laws only."""
        m = a.level
        if not self.composable(a, b, p):
            raise ComposabilityError("not composable", a, b)
        unit = self.identity_iter(self.target_iter(a, m - p), m - p)
        return a + (b - unit)


def _objects(key) -> tuple:
    return tuple((0, i) for i in key)


def seed_fold_compose(C, factors):
    acc = factors[0]
    m = acc.level
    for named in factors[1:]:
        tgt = C.target_iter(acc, m)
        pad_obj = tuple(a - b for a, b in zip(tgt.components[0], named.components[0]))
        acc = C.compose(acc, named + C.cell_from_v0(pad_obj, m), 0)
    return acc


def seed_eta_epsilon(D, x, y, z, u):
    C = SeedCat(D.cat)
    br = lambda p, q: bracket_objects(D, p, q)
    one = lambda w: C.cell_from_v0(w, 1)
    bc = lambda c, d: bracket_cells(D, c, d)
    eta = seed_fold_compose(C, [
        bc(J_formula(D, x, y, z), one(u)),
        J_formula(D, br(x, z), y, u) + J_formula(D, x, br(y, z), u),
        bc(J_formula(D, x, z, u), one(y)),
        bc(one(x), J_formula(D, y, z, u)),
    ])
    eps = seed_fold_compose(C, [
        J_formula(D, br(x, y), z, u),
        bc(J_formula(D, x, y, u), one(z)),
        J_formula(D, x, br(y, u), z) + J_formula(D, br(x, u), y, z)
        + J_formula(D, x, y, br(z, u)),
    ])
    return eta, eps


def seed_inverse2(D, alpha):
    A, s, a = alpha.components
    return Cell(2, (A, vadd(s, D.cat.t_matrix(2).apply(a)), tuple(-c for c in a)))


def seed_check_bifunctor(D) -> Report:
    L = SeedCat(D.cat)
    col = SeedCollector("bifunctor")
    br = lambda a, b: bracket_cells(D, a, b)
    basis = [[(c, L.coded_cell(c)) for c in L.spanning_codes(m)] for m in range(3)]
    zero = [zero_cell(L, m) for m in range(3)]
    for m in (1, 2):
        for (ca, a), (cb, b) in itertools.product(basis[m], repeat=2):
            ab, w = br(a, b), (ca, cb)
            col.compare("source", w, L.source(ab), br(L.source(a), L.source(b)))
            col.compare("target", w, L.target(ab), br(L.target(a), L.target(b)))
    for m in (0, 1):
        for (ca, a), (cb, b) in itertools.product(basis[m], repeat=2):
            col.compare("identity", (ca, cb), L.identity(br(a, b)),
                        br(L.identity(a), L.identity(b)))
    for m in (0, 1, 2):
        for (ca, a), (cb, b) in itertools.product(basis[m], repeat=2):
            col.compare("antisymmetry", (ca, cb), br(a, b) + br(b, a), zero[m])
    for m in (1, 2):
        for p in range(m):
            factors = []
            for kv in L.composable_codes(m, p):
                v = L.coded_cell(kv[0])
                factors.append((kv, v, L.right_factor(v, kv[1], p)))
            for (kv, v, vp), (kw, w, wp) in itertools.product(factors, repeat=2):
                wit = (p,) + kv + kw
                try:
                    lhs = br(L.compose(v, vp, p), L.compose(w, wp, p))
                    rhs = L.compose(br(v, w), br(vp, wp), p)
                except ComposabilityError as e:
                    col.compare("composable", wit, e.left, e.right)
                    continue
                col.compare("composition", wit, lhs, rhs)
    f1 = [(c, f) for c, f in basis[1] if c[1] is not None]
    a2 = [(c, a) for c, a in basis[2] if c[2] is not None]
    for cf, f in f1:
        for cg, g in f1:
            fg, w = br(f, g), (cf, cg)
            col.compare("kernel-bracket [f,g]=[1_tf,g]", w, fg, br(L.identity(L.target(f)), g))
            col.compare("kernel-bracket [f,g]=[f,1_tg]", w, fg, br(f, L.identity(L.target(g))))
        tf2 = L.cell_from_v0(L.t_matrix(1).apply(f.components[1]), 2)
        for cb, b in a2:
            w = (cf, cb)
            col.compare("kernel-bracket [1_f,b]=0", w, br(L.identity(f), b), zero[2])
            col.compare("kernel-bracket [1^2_tf,b]=0", w, br(tf2, b), zero[2])
    for ca, a in a2:
        ta = L.identity(L.target(a))
        for cb, b in a2:
            w = (ca, cb)
            col.compare("kernel-bracket [a,b]=0", w, br(a, b), zero[2])
            col.compare("kernel-bracket [1_ta,b]=0", w, br(ta, b), zero[2])
            col.compare("kernel-bracket [a,1_tb]=0", w, br(a, L.identity(L.target(b))), zero[2])
    space, l2 = D.space, D.bracket_constants.eval_blocks
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


def _jac_F(D, c1, c2, c3):
    return bracket_cells(D, bracket_cells(D, c1, c2), c3)


def _jac_G(D, c1, c2, c3):
    return (bracket_cells(D, bracket_cells(D, c1, c3), c2)
            + bracket_cells(D, c1, bracket_cells(D, c2, c3)))


def seed_naturality_squares(D, col, F, G, theta, arity):
    L = SeedCat(D.cat)
    e0 = Matrix.eye(L.dim(0)).cols()
    alphas = [(c, L.coded_cell(c)) for c in L.spanning_codes(2)]
    for slot in range(arity):
        for key in itertools.product(range(L.dim(0)), repeat=arity - 1):
            objs = [e0[i] for i in key]
            ids = [L.cell_from_v0(x, 2) for x in objs]
            for ca, alpha in alphas:
                w = (slot, _objects(key), ca)
                args = ids[:slot] + [alpha] + ids[slot:]
                t2 = vadd(alpha.components[0], L.t_matrix(1).apply(alpha.components[1]))
                t_objs = objs[:slot] + [t2] + objs[slot:]
                s_objs = objs[:slot] + [alpha.components[0]] + objs[slot:]
                try:
                    res = (L.compose(F(D, *args), theta(t_objs), 0)
                           - L.compose(theta(s_objs), G(D, *args), 0))
                except ComposabilityError as e:
                    col.compare("composable", w, e.left, e.right)
                    continue
                yield w, res


def seed_check_jacobiator(D) -> Report:
    L = SeedCat(D.cat)
    col = SeedCollector("jacobiator")
    e0 = Matrix.eye(L.dim(0)).cols()
    bo = lambda p, q: bracket_objects(D, p, q)
    for key in itertools.product(range(L.dim(0)), repeat=3):
        x, y, z = (e0[i] for i in key)
        col.compare("target", _objects(key), L.target(J_formula(D, x, y, z)).components[0],
                    vadd(bo(bo(x, z), y), bo(x, bo(y, z))))
    theta = lambda objs: L.identity(J_formula(D, *objs))
    z1, z2 = vzero(L.dim(1)), vzero(L.dim(2))
    for w, res in seed_naturality_squares(D, col, _jac_F, _jac_G, theta, 3):
        col.compare("naturality-v1", w, res.components[1], z1)
        col.compare("naturality-v2", w, res.components[2], z2)
    return col.report()


def _id_F(D, c1, c2, c3, c4):
    br = lambda a, b: bracket_cells(D, a, b)
    return br(br(br(c1, c2), c3), c4)


def _id_G(D, c1, c2, c3, c4):
    br = lambda a, b: bracket_cells(D, a, b)
    return (br(br(c1, c3), br(c2, c4)) + br(c1, br(br(c2, c4), c3))
            + br(br(br(c1, c4), c3), c2) + br(br(c1, c4), br(c2, c3))
            + br(br(c1, br(c3, c4)), c2) + br(c1, br(c2, br(c3, c4))))


def seed_check_identiator(D) -> Report:
    L = SeedCat(D.cat)
    col = SeedCollector("identiator")
    e0 = Matrix.eye(L.dim(0)).cols()
    for key in itertools.product(range(L.dim(0)), repeat=4):
        objs = [e0[i] for i in key]
        eta, eps = seed_eta_epsilon(D, *objs)
        mc, w = mu_formula(D, *objs), _objects(key)
        col.compare("source", w, L.source(mc), eta)
        col.compare("target", w, L.target(mc), eps)
    zero = zero_cell(L, 2)
    for w, res in seed_naturality_squares(D, col, _id_F, _id_G,
                                          lambda objs: mu_formula(D, *objs), 4):
        which = "v2" if vis_zero(res.components[1]) else "v1"
        col.compare(f"modification-{which}", w, res, zero)
    return col.report()


def seed_alpha_cell(D, i, x, y, z, u, v, memo: dict | None = None):
    """alpha_i on five 0-cells.  ``memo`` keeps the values of bracket_objects,
    J_formula and mu_formula by their arguments, for a caller that evaluates
    many alphas of one structure."""
    C = SeedCat(D.cat)
    memo = {} if memo is None else memo

    def cached(f):
        def g(*args):
            key = (f, *args)
            if key not in memo:
                memo[key] = f(D, *args)
            return memo[key]
        return g
    br, J, mu = cached(bracket_objects), cached(J_formula), cached(mu_formula)
    one1 = lambda w: C.cell_from_v0(w, 1)
    one2 = lambda c: C.identity(c)
    bc = lambda a, b: bracket_cells(D, a, b)
    id2v = lambda w: C.cell_from_v0(w, 2)
    if i == 1:
        return seed_fold_compose(C, [
            one2(J(br(br(x, y), z), u, v)),
            mu(x, y, z, br(u, v)) + bc(mu(x, y, z, v), id2v(u)),
            one2(bc(J(x, br(z, v), y), one1(u)) + bc(J(br(x, v), z, y), one1(u))
                 + bc(J(x, z, br(y, v)), one1(u))),
            mu(br(x, v), y, z, u) + mu(x, br(y, v), z, u) + mu(x, y, br(z, v), u),
        ])
    if i == 4:
        return seed_fold_compose(C, [
            bc(mu(x, y, z, u), id2v(v)),
            one2(bc(J(br(x, u), z, y), one1(v)) + bc(J(x, z, br(y, u)), one1(v))
                 + bc(J(x, br(z, u), y), one1(v))),
            mu(br(x, u), y, z, v) + mu(x, br(y, u), z, v) + mu(x, y, br(z, u), v),
            one2(bc(bc(J(x, u, v), one1(z)), one1(y)) + bc(J(x, u, v), one1(br(y, z)))
                 + bc(one1(x), bc(J(y, u, v), one1(z))) + bc(bc(one1(x), J(z, u, v)), one1(y))
                 + bc(one1(x), bc(one1(y), J(z, u, v))) + bc(one1(br(x, z)), J(y, u, v))),
        ])
    if i == 3:
        return seed_fold_compose(C, [
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
        return seed_fold_compose(C, [
            one2(bc(bc(J(x, y, z), one1(u)), one1(v))),
            mu(br(x, z), y, u, v) + mu(x, br(y, z), u, v),
            one2(bc(one1(x), J(br(y, z), v, u)) + bc(J(br(x, z), v, u), one1(y))),
            bc(id2v(x), mu(y, z, u, v)) + bc(mu(x, z, u, v), id2v(y)),
            one2(bc(J(x, z, v), one1(br(y, u))) + bc(J(x, z, u), one1(br(y, v)))
                 + bc(one1(br(x, v)), J(y, z, u)) + bc(one1(br(x, u)), J(y, z, v))),
        ])
    raise ValueError("i must be in 1..4")


def seed_coherence_residual(D, x, y, z, u, v, memo: dict | None = None):
    memo = {} if memo is None else memo
    a1, a2, a3, a4 = (seed_alpha_cell(D, i, x, y, z, u, v, memo) for i in (1, 2, 3, 4))
    return (a1 + seed_inverse2(D, a4)) - (a3 + seed_inverse2(D, a2))


def seed_check_coherence(D, tuples=None) -> Report:
    L = D.cat
    e0 = Matrix.eye(L.dim(0)).cols()
    if tuples is None:
        tuples = itertools.combinations_with_replacement(range(L.dim(0)), 5)
    data = LInfinityData(D.space, L.t_data, D.bracket_constants, D.J, -D.mu)
    col = SeedCollector("coherence")
    zero = zero_cell(L, 2)
    memo = {}  # shared by every quintuple: they share brackets, J and mu terms
    for key in tuples:
        w = _objects(key)
        res = seed_coherence_residual(D, *(e0[i] for i in key), memo=memo)
        r5 = linfty_residual(data, 5, [GradedVector.basis_vector(D.space, 0, i) for i in key])
        col.compare("coherence", w, res, zero)
        col.compare("order5-agreement", w, res.components[2], r5.component(2))
    return col.report()


# -- the seed nerve and tensor complex, kept as the oracle --------------
#
# The nerve's faces, degeneracies and level maps written out in kernel
# coordinates with l1 applied by hand, and the tensor differential filled in
# entry by entry, exactly as the library computed them before it built them
# from the category's structure maps and from Kronecker blocks.

def _seed_mat(action, dim_in: int, dim_out: int) -> Matrix:
    if dim_out == 0 or dim_in == 0:
        return Matrix.zeros(dim_out, dim_in)
    cols = [tuple(Q(c) for c in action(e)) for e in Matrix.eye(dim_in).cols()]
    return Matrix.from_cols(cols, nrows=dim_out)


def seed_nerve(L, N: int):
    """(dims, faces, degens) of the nerve of a linear category, truncated at N."""
    n0, n1 = L.dim(0), L.dim(1)
    l1 = L.t_matrix(1)
    dims = tuple(n0 + n * n1 for n in range(N + 1))

    def split(v, n):
        return tuple(v[:n0]), [tuple(v[n0 + k * n1: n0 + (k + 1) * n1]) for k in range(n)]

    def join(x, fs):
        return tuple(x) + tuple(c for f in fs for c in f)

    def face(n, i):
        def act(v):
            x, fs = split(v, n)
            if i == 0:
                return join(vadd(x, l1.apply(fs[0])), fs[1:])
            if i == n:
                return join(x, fs[:-1])
            return join(x, fs[:i - 1] + [vadd(fs[i - 1], fs[i])] + fs[i + 1:])
        return _seed_mat(act, dims[n], dims[n - 1])

    def degen(n, i):
        def act(v):
            x, fs = split(v, n)
            return join(x, fs[:i] + [vzero(n1)] + fs[i:])
        return _seed_mat(act, dims[n], dims[n + 1])

    faces = tuple(tuple(face(n, i) for i in range(n + 1)) for n in range(1, N + 1))
    degens = tuple(tuple(degen(n, i) for i in range(n + 1)) for n in range(N))
    return dims, faces, degens


def seed_nerve_map(F, N: int) -> list[Matrix]:
    src, dst = F.source_cat, F.target_cat
    l1 = src.t_matrix(1)
    n0, n1 = src.dim(0), src.dim(1)
    out = []
    for n in range(N + 1):
        def act(v, n=n):
            x = tuple(v[:n0])
            fs = [tuple(v[n0 + k * n1: n0 + (k + 1) * n1]) for k in range(n)]
            img = list(F.level_maps[0].apply(x))
            base = x
            for f in fs:
                img.extend(F.apply(src.unflatten(1, tuple(base) + f)).components[1])
                base = vadd(base, l1.apply(f))
            return tuple(img)
        out.append(_seed_mat(act, n0 + n * n1, dst.dim(0) + n * dst.dim(1)))
    return out


def seed_tensor_complex(C: ChainComplexT, D: ChainComplexT, trunc: int | None = None):
    """(dims, diffs, layout) of C (x) D with d(a (x) b) = da (x) b + (-1)^p a (x) db."""
    N = trunc if trunc is not None else C.top_degree + D.top_degree
    layout = [[(p, n - p) for p in range(n + 1)
               if C.dim(p) > 0 and D.dim(n - p) > 0] for n in range(N + 1)]
    dims = [sum(C.dim(p) * D.dim(q) for p, q in layout[n]) for n in range(N + 1)]

    def block_offset(n, p, q):
        off = 0
        for (pp, qq) in layout[n]:
            if (pp, qq) == (p, q):
                return off
            off += C.dim(pp) * D.dim(qq)
        return None

    diffs = []
    for n in range(1, N + 1):
        m = [[0 for _ in range(dims[n])] for _ in range(dims[n - 1])]
        coff = 0
        for (p, q) in layout[n]:
            dp, dq = C.dim(p), D.dim(q)
            if p >= 1 and (roff := block_offset(n - 1, p - 1, q)) is not None:
                dC = C.diff(p)
                for a in range(dp):
                    for b in range(dq):
                        for a2 in range(C.dim(p - 1)):
                            m[roff + a2 * dq + b][coff + a * dq + b] += dC.rows[a2][a]
            if q >= 1 and (roff := block_offset(n - 1, p, q - 1)) is not None:
                dD = D.diff(q)
                sgn = -1 if p % 2 else 1
                for a in range(dp):
                    for b in range(dq):
                        for b2 in range(D.dim(q - 1)):
                            m[roff + a * D.dim(q - 1) + b2][coff + a * dq + b] += sgn * dD.rows[b2][b]
            coff += dp * dq
        diffs.append(Matrix(m, ncols=dims[n]))
    return tuple(dims), tuple(diffs), layout


def rand_chain_map(rng: random.Random, C: ChainComplexT, D: ChainComplexT) -> tuple[Matrix, ...]:
    """A random chain map (f0, f1, ..) between complexes of one length: a
    random combination of a basis of the solutions of d_D f_k = f_{k-1} d_C."""
    shapes = list(zip(D.dims, C.dims))
    starts = [0, *itertools.accumulate(b * a for b, a in shapes)]

    def unpack(v):
        return tuple(Matrix([v[s + i * a:s + (i + 1) * a] for i in range(b)], ncols=a)
                     for s, (b, a) in zip(starts, shapes))

    def residual(v):
        f = unpack(v)
        return tuple(x for k in range(1, len(f))
                     for r in (D.diff(k) @ f[k] - f[k - 1] @ C.diff(k)).rows for x in r)

    n = starts[-1]
    nrows = sum(D.dim(k - 1) * C.dim(k) for k in range(1, len(shapes)))
    eqs = Matrix.from_cols([residual(e) for e in Matrix.eye(n).cols()], nrows=nrows)
    v = vzero(n)
    for b in eqs.nullspace():
        v = vadd(v, vscale(rand_q(rng, 2), b))
    return unpack(v)


# -- the seed tensor coordinates, pairing and shuffle map, kept as the oracle --
#
# The raw <-> component coordinates of L ⊠ M by the left-to-right projection,
# one raw vector at a time; the arrowwise pairing into the nerve of L ⊠ L, one
# pair of simplices at a time; and the shuffle map, one pair of Moore basis
# vectors at a time: exactly as the library computed them before it stored
# one lift matrix per level and built both maps from Kronecker blocks.

class SeedTensorCoords:
    """The seed's raw <-> component dictionaries of L ⊠ M.  ``drop`` removes
    the last kernel basis vector at that level, so that the component span
    becomes a proper subspace of the raw cells."""

    def __init__(self, L, M, drop: int | None = None):
        self.raw_s = [L.s_matrix_level(m).kron(M.s_matrix_level(m)) for m in range(L.n + 1)]
        self.raw_i = [L.i_matrix_level(m).kron(M.i_matrix_level(m)) for m in range(L.n)]
        self.kernel_mats = [Matrix.from_cols(S.nullspace(), nrows=S.ncols) for S in self.raw_s]
        if drop is not None:
            B = self.kernel_mats[drop]
            self.kernel_mats[drop] = Matrix.from_cols(B.cols()[:-1], nrows=B.nrows)
        self.kernel_inv = [B.left_inverse() for B in self.kernel_mats]

    def raw_to_cell(self, m: int, raw) -> Cell:
        raw = tuple(Q(c) for c in raw)
        comps = []
        lifted_sum = vzero(self.raw_s[m].ncols)
        for i in range(m + 1):
            u = tuple(a - b for a, b in zip(raw, lifted_sum, strict=True))
            for k in range(m, i, -1):
                u = self.raw_s[k].apply(u)
            coords = self.kernel_inv[i].apply(u)
            if self.kernel_mats[i].apply(coords) != u:
                raise ValueError("raw vector is not in the component span")
            comps.append(coords)
            lift = u
            for k in range(i, m):
                lift = self.raw_i[k].apply(lift)
            lifted_sum = vadd(lifted_sum, lift)
        return Cell(m, tuple(comps))

    def cell_to_raw(self, a: Cell) -> tuple:
        m = a.level
        out = vzero(self.raw_s[m].ncols)
        for i in range(m + 1):
            lift = self.kernel_mats[i].apply(a.components[i])
            for k in range(i, m):
                lift = self.raw_i[k].apply(lift)
            out = vadd(out, lift)
        return out


def short_component_cat(cat, m: int):
    """A category laid out like ``cat`` but with one basis vector fewer at
    level m, and t = 0: the component category of a TensorCat whose lift
    drops the last kernel basis vector at level m (only its layout is read)."""
    space = GradedSpace(tuple(d - (k == m) for k, d in enumerate(cat.space.dims)))
    return LinearNCat(space, MultiMap.zero(1, -1, space))


def seed_simplex(L, v, n: int) -> tuple:
    """(base object, flat arrows) of the nerve n-simplex v of L: each arrow is
    its start, the target of the arrow before, followed by its kernel part."""
    n0, n1 = L.dim(0), L.dim(1)
    x, arrows = tuple(v[:n0]), []
    for k in range(n):
        start = SeedCat(L).target(L.unflatten(1, arrows[-1])).components[0] if arrows else x
        arrows.append(start + tuple(v[n0 + k * n1: n0 + (k + 1) * n1]))
    return x, arrows


def seed_pairing_matrix(L, S, coords: SeedTensorCoords, cat, n: int) -> Matrix:
    """The arrowwise pairing (S (x) S)_n -> nerve(L ⊠ L)_n, one pair of basis
    simplices at a time; ``cat`` is the component category of L ⊠ L."""
    tensor = lambda a, b: tuple(x * y for x in a for y in b)
    simplices = [seed_simplex(L, e, n) for e in Matrix.eye(S.dim(n)).cols()]
    cols = []
    for xa, arrows_a in simplices:
        for xb, arrows_b in simplices:
            col = coords.raw_to_cell(0, tensor(xa, xb)).components[0]
            for fa, fb in zip(arrows_a, arrows_b):
                flat = tuple(itertools.chain(*coords.raw_to_cell(1, tensor(fa, fb)).components))
                col += flat[cat.dim(0):]
            cols.append(col)
    return Matrix.from_cols(cols, nrows=cat.dim(0) + n * cat.dim(1))


def seed_obstruction_demo(L):
    """``obstruction_demo`` as it was when it built both truncated nerves, of
    L and of L ⊠ L, to read the inner face d_2 at level 3 off each; the
    pairing is the seed's pair-by-pair matrix."""
    from shlie3.lincat import tensor_product
    from shlie3.simplicial import ObstructionReport, compose_tensor_identity, nerve

    tc = tensor_product(L, L)
    coords = SeedTensorCoords(L, L)
    S, NT = nerve(L, 3), nerve(tc.cat, 3)
    M2 = seed_pairing_matrix(L, S, coords, tc.cat, 2)
    M3 = seed_pairing_matrix(L, S, coords, tc.cat, 3)
    diff = M2 @ (S.d(3, 2).kron(S.d(3, 2))) - NT.d(3, 2) @ M3
    kernel_dim = M2.ncols - M2.rank()
    witness = wdiff = None
    for j in range(diff.ncols):
        if not vis_zero(diff.col(j)):
            witness, wdiff = divmod(j, S.dim(3)), diff.col(j)
            break
    if L.dim(1) == 0:
        obstructed, msg = False, "no obstruction: V1 = 0 makes the pairing simplicial"
    elif witness is not None:
        obstructed, msg = True, "obstruction: the pairing does not commute with the inner face d_2"
    else:
        obstructed, msg = False, "no witness found at level 3"
    return ObstructionReport(compose_tensor_identity(L, tc), obstructed, witness, wdiff,
                             kernel_dim, msg)


def _seed_shuffle_sign(mu, nu) -> int:
    sign = 1
    for a in mu:
        for b in nu:
            if a > b:
                sign = -sign
    return sign


def _seed_degeneracy_chain(S, level: int, v, indices):
    for k, i in enumerate(indices):
        v = S.s(level + k, i).apply(v)
    return v


def seed_ez(S, T):
    """The shuffle map moore(S) (x) moore(T) -> moore(S (x) T), one pair of
    Moore basis vectors at a time."""
    from shlie3.chain import ChainMapT, tensor_complex
    from shlie3.simplicial import moore, moore_bases, tensor_svs

    N = S.trunc
    ST = tensor_svs(S, T)
    bS, bT, bST = moore_bases(S), moore_bases(T), moore_bases(ST)
    prod, layout = tensor_complex(moore(S), moore(T), trunc=N)
    maps = []
    for n in range(N + 1):
        cols = []
        BST = Matrix.from_cols(bST[n], nrows=ST.dim(n))
        for (p, q) in layout[n]:
            for a in bS[p]:
                for b in bT[q]:
                    raw = vzero(ST.dim(n))
                    for mu in itertools.combinations(range(n), p):
                        nu = tuple(k for k in range(n) if k not in mu)
                        va = _seed_degeneracy_chain(S, p, a, nu)
                        vb = _seed_degeneracy_chain(T, q, b, mu)
                        term = tuple(x * y for x in va for y in vb)
                        sgn = _seed_shuffle_sign(mu, nu)
                        raw = vadd(raw, term) if sgn > 0 else tuple(
                            r - t for r, t in zip(raw, term))
                    cols.append(raw)
        X = BST.solve_matrix(Matrix.from_cols(cols, nrows=ST.dim(n)))
        if X is None:
            raise ValueError("shuffle image is not normalized")
        maps.append(X)
    return ChainMapT(prod, moore(ST), tuple(maps))
