"""Property tests: compiled evaluation and residuals against the seed oracle,
the chi sign calculus, the zero-skipping linear algebra against the seed
dense loops, the compiled lie3 cell operations against their component
formulas, the spec-file parse/render roundtrip, the bases of composable
pairs against the seed zero-or-basis products, conjugation invariance of
the homotopy-algebra verdicts, the nerve and tensor complex against the
seed's hand-written coordinate formulas, and the tensor category's
coordinates, the nerve pairing and the shuffle map against the seed's
vector-at-a-time loops, and the obstruction demo against building both
truncated nerves."""

import itertools
import json
import random
from fractions import Fraction as Q
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from shlie3 import lie3
from shlie3.cli import _render_checks, main
from shlie3.graded import (ContradictionError, GradedSpace, GradedVector, MultiMap, Permutation,
                           build_multimap, canonicalize, koszul_chi)
from shlie3.lie3 import (Lie3Data, alpha_cell, bracket_cells, check_bifunctor, check_coherence,
                         check_identiator, check_jacobiator, coherence_residual, eta_epsilon,
                         from_linfinity, mu_cell)
from shlie3.chain import ChainComplexT, tensor_complex
from shlie3.lincat import (Cell, ComposabilityError, LinearNCat, TensorCat, from_chain,
                           lift_functor, tensor_product)
from shlie3.linalg import Matrix, quotient_basis, vadd, vsub, vzero
from shlie3.linfinity import LInfinityData, check_all
from shlie3.simplicial import (_pairing_matrix, compose_tensor_identity, ez, nerve, nerve_map,
                               obstruction_demo)
from shlie3.specfile import build, parse_spec, render_lie3, render_linfinity

from helpers import (J_cell, J_formula, SeedCat, SeedTensorCoords, block_diag, bracket_formula,
                     bracket_objects,
                     ce_cocycles4, conjugate, flat, l1_only, mu_formula, rand_brackets,
                     rand_chain2, rand_chain3, rand_chain_map, rand_conjugate, rand_vec,
                     retired_failures, scaling_brackets, seed_bifunctor_factors,
                     seed_alpha_cell, seed_canonicalize, seed_check_bifunctor, seed_check_coherence,
                     seed_coherence_residual,
                     seed_check_condition, seed_check_identiator, seed_check_jacobiator,
                     linfty_residual, seed_eta_epsilon, seed_eval, seed_ez, seed_kron, seed_linfty_residual,
                     seed_left_inverse, seed_matmul, seed_nerve, seed_nerve_map,
                     seed_nullspace, seed_obstruction_demo,
                     seed_pad_composable, seed_pairing_matrix, seed_quotient_basis, seed_rref,
                     seed_tensor_complex, seed_solve_matrix, seed_spanning_pairs,
                     seed_tensor_identity_pairs, seed_tensor_identity_residual,
                     short_component_cat, sparse_matrix, special_valid_samples)
from test_lie3 import (_gv0, _l, _with_random_constants, abelian_cat, action_not_a_representation,
                       alpha_v2_oracle, glambda_cat, scaling_cat)

dims_st = st.tuples(st.integers(1, 3), st.integers(0, 2), st.integers(0, 2))


def rand_vector(rng: random.Random, space: GradedSpace, degrees) -> GradedVector:
    """Random vector supported in the given degrees (a random subset of entries)."""
    coords = [tuple(Q(rng.randint(-2, 2)) if d in degrees and rng.random() < 0.7 else Q(0)
                    for _ in range(n)) for d, n in enumerate(space.dims)]
    return GradedVector(space, tuple(coords))


@settings(max_examples=40, deadline=None)
@given(dims=dims_st, arity=st.integers(1, 4), weight=st.integers(-1, 2),
       seed=st.integers(0, 2**32))
def test_table_eval_matches_seed_expansion(dims, arity, weight, seed):
    rng = random.Random(seed)
    space = GradedSpace(dims)
    raw = []
    for key in itertools.combinations_with_replacement(space.basis(), arity):
        od = sum(d for d, _ in key) + weight
        if any(a == b and a[0] % 2 == 0 for a, b in zip(key, key[1:])):
            continue
        if 0 <= od <= 2 and rng.random() < 0.6:
            raw.append((key, tuple(Q(rng.randint(-3, 3)) for _ in range(dims[od]))))
    m = build_multimap(arity, weight, space, raw)
    args = [rand_vector(rng, space, rng.sample(range(3), rng.randint(1, 3)))
            for _ in range(arity)]
    assert m.eval(args) == seed_eval(m, args)


@settings(max_examples=25, deadline=None)
@given(dims=st.tuples(st.integers(2, 4), st.integers(1, 2), st.integers(1, 2)),
       n=st.integers(1, 5), seed=st.integers(0, 2**32))
def test_residual_is_multilinear_sum_of_basis_residuals(dims, n, seed):
    rng = random.Random(seed)
    data = rand_brackets(rng, dims, density=0.7)
    space = data.space
    # argument degrees whose residual degree sum + n - 3 lies in 0..2
    degrees = rng.choice([deg for deg in itertools.product(range(3), repeat=n)
                          if 0 <= sum(deg) + n - 3 <= 2])
    args = [rand_vector(rng, space, (d,)) for d in degrees]
    lhs = linfty_residual(data, n, args)
    rhs = GradedVector.zero(space)
    for combo in itertools.product(*(a.support() for a in args)):
        c = Q(1)
        for _, coeff in combo:
            c *= coeff
        basis = [GradedVector.basis_vector(space, d, i) for (d, i), _ in combo]
        rhs = rhs + linfty_residual(data, n, basis).scale(c)
    assert lhs == rhs
    if n <= 4:
        assert lhs == seed_linfty_residual(data, n, args)


@settings(max_examples=40, deadline=None)
@given(dims=st.tuples(st.integers(1, 5), st.integers(1, 2), st.integers(1, 2)),
       n=st.integers(2, 5), seed=st.integers(0, 2**32), distinct=st.booleans())
@example(dims=(5, 1, 1), n=5, seed=0, distinct=True)  # five distinct 0-cells
@example(dims=(2, 1, 1), n=3, seed=3, distinct=False)  # a repeated odd entry, nonzero
def test_residual_is_canonical_sign_times_sorted_residual(dims, n, seed, distinct):
    """The premise of ``check_coherence`` expanding the order-5 residual once
    per sorted quintuple: on any brackets, valid or not, the order-n residual
    at each ordering of a basis tuple is ``canonicalize``'s sign times its
    value at the sorted tuple, 0 where an even-degree entry repeats.  At order
    5 a residual is nonzero only on V0; orders 2 and 3 reach repeated odd
    entries, ((1, i), (1, i)) and ((1, i), (1, i), (0, j)).  Checked against
    ``seed_linfty_residual`` on the sorted tuple and a few orderings.  With
    ``distinct`` the entries of each degree repeat only when that degree has
    too few basis elements."""
    rng = random.Random(seed)
    data = rand_brackets(rng, dims, density=0.7)
    space = data.space
    degrees = rng.choice([deg for deg in itertools.product(range(3), repeat=n)
                          if 0 <= sum(deg) + n - 3 <= 2])
    unused = [rng.sample(range(m), m) for m in dims]
    key = tuple((d, unused[d].pop() if distinct and unused[d] else rng.randrange(dims[d]))
                for d in degrees)
    basis = lambda k: [GradedVector.basis_vector(space, *b) for b in k]
    ckey, _ = canonicalize(key)
    sorted_res = linfty_residual(data, n, basis(ckey))
    assert sorted_res == seed_linfty_residual(data, n, basis(ckey))
    perms = sorted(set(itertools.permutations(key)))
    for k, perm in enumerate(perms):
        res = linfty_residual(data, n, basis(perm))
        assert res == sorted_res.scale(canonicalize(perm)[1])
        if k % max(1, len(perms) // 4) == 0:
            assert res == seed_linfty_residual(data, n, basis(perm))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.permutations(range(1, n + 1)), st.permutations(range(1, n + 1)),
    st.lists(st.integers(0, 2), min_size=n, max_size=n))))
def test_chi_multiplicative(case):
    s, t, deg = Permutation(tuple(case[0])), Permutation(tuple(case[1])), case[2]
    assert koszul_chi(s.compose(t), deg) == koszul_chi(s, t.apply(deg)) * koszul_chi(t, deg)


# basis elements (degree, index) with few indices, so that keys often repeat one
key_st = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)), min_size=1, max_size=5).map(tuple)


@settings(max_examples=80, deadline=None)
@given(key_st)
@example(((1, 0), (2, 1), (1, 0), (0, 0), (1, 1)))  # a repeated odd element, all degrees
@example(((0, 1), (2, 0), (0, 1)))  # a repeated even element
def test_sign_folding_matches_koszul_chi(key):
    """On every reordering of a key, ``canonicalize``, the signs that
    ``MultiMap.table()`` folds in and ``build_multimap``'s folding of a raw
    entry agree with ``koszul_chi`` of a ``Permutation`` (``seed_canonicalize``)."""
    n, space = len(key), GradedSpace((2, 2, 2))
    weight = -sum(d for d, _ in key)  # every value lands in degree 0
    ckey, sign = seed_canonicalize(key)
    table = (MultiMap(n, weight, space, {ckey: (1, 0)}).table() if sign else {})
    for perm in set(itertools.permutations(key)):
        expected = seed_canonicalize(perm)
        assert canonicalize(perm) == expected
        if sign:
            assert table[perm] == (((0, 0), expected[1]),)
            folded = build_multimap(n, weight, space, [(perm, (Q(1, 2), 3))])
            assert folded.coeffs == {ckey: (expected[1] * Q(1, 2), expected[1] * 3)}
        else:
            with pytest.raises(ContradictionError):
                build_multimap(n, weight, space, [(perm, (1, 0))])


shape_st = st.integers(0, 6)
zero_share_st = st.sampled_from([0.0, 0.3, 0.6, 0.9])
# a nonzero entry: an int or a Fraction, so that pivots are often not +-1
value_st = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=3))


def matrix_st(m: int, n: int, zero_share: float):
    """m x n matrices whose entries are zero with probability zero_share, and
    otherwise drawn from ``value_st``."""
    entry = st.tuples(st.integers(0, 9), value_st).map(
        lambda t: 0 if t[0] < 10 * zero_share else t[1])
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m).map(
        lambda rows: Matrix(rows, ncols=n))


def narrowed(entries) -> bool:
    """Every entry an int, or a Fraction that is not integral."""
    return all(type(e) is int or type(e) is Q and e.denominator != 1 for e in entries)


def kernel_case_st():
    """(A, B, C) of shapes m x k, k x n and m x n, with one zero share."""
    return st.tuples(shape_st, shape_st, shape_st, zero_share_st).flatmap(
        lambda t: st.tuples(*(matrix_st(r, c, t[3])
                              for r, c in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2])))))


@settings(max_examples=80, deadline=None)
@given(case=kernel_case_st())
@example(case=(Matrix([[2, Q(1, 2)], [Q(-1, 3), 4]]), Matrix([[Q(2, 3)], [2]]),
               Matrix([[1], [0]])))
def test_sparse_kernel_matches_seed_dense_loops(case):
    """The zero-skipping, int-narrowing kernel against the Fraction-only seed,
    on drawn matrices with non-integral entries, pivots other than +-1 and
    empty or zero shapes; every result entry is narrowed.  The example has
    pivots 2 and 49/12, and a Kronecker entry 1/2 * 2 that is integral."""
    A, B, C = case
    k, n = B.shape
    AB = A @ B
    assert AB.rows == seed_matmul(A, B)
    v = B.col(0) if n else (0,) * k
    assert A.apply(v) == tuple(r[0] for r in seed_matmul(A, Matrix.from_cols([v], nrows=k)))
    assert A.kron(B).rows == seed_kron(A, B)
    R, pivots = A.rref()
    assert (R.rows, pivots) == seed_rref(A)
    assert A.nullspace() == seed_nullspace(A)
    X = A.solve_matrix(C)
    want = seed_solve_matrix(A, C)
    assert (X is None) == (want is None) and (X is None or X.rows == want)
    # a right-hand side in the column space always has a solution
    Y = A.solve_matrix(AB)
    assert Y is not None and Y.rows == seed_solve_matrix(A, AB)
    rows = [r for M in (AB, A.kron(B), R, Y, X or Y) for r in M.rows] + A.nullspace()
    assert narrowed(e for r in rows for e in r)


@settings(max_examples=60, deadline=None)
@given(m=shape_st, n=shape_st, zero_share=zero_share_st, data=st.data())
def test_matrix_equality_and_hash_agree_with_dense_equality(m, n, zero_share, data):
    """Two matrices are equal, with equal hashes, exactly when their shapes
    and their entries as rationals are: the same entries given as Fractions
    (an integral one equals an int) make an equal matrix that stores the same
    narrowed entries, every zero the int 0, and changing one entry makes an
    unequal one."""
    A = data.draw(matrix_st(m, n, zero_share))
    B = Matrix([[Q(e) for e in r] for r in A.rows], ncols=n)
    assert A == B and hash(A) == hash(B) and A.rows == B.rows
    entries = [e for r in B.rows for e in r]
    assert narrowed(entries) and all(type(e) is int for e in entries if e == 0)
    assert A != Matrix.zeros(m, n + 1) and A != Matrix.zeros(m + 1, n)
    if m and n:
        i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, n - 1))
        C = Matrix([[e + (r == i and c == j) for c, e in enumerate(row)] for r, row in enumerate(A.rows)])
        assert C != A and C.rows != A.rows


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 7), k=shape_st, zero_share=zero_share_st, data=st.data())
def test_left_inverse_and_quotient_basis(m, k, zero_share, data):
    A = data.draw(matrix_st(m, k, zero_share))
    X = A.left_inverse()
    want = seed_left_inverse(A)
    assert (X is None) == (want is None) == (len(seed_rref(A)[1]) != k)
    if X is not None:
        assert X.rows == want and narrowed(e for r in X.rows for e in r)
        assert X @ A == Matrix.eye(k)
    assert quotient_basis(A.cols(), m) == seed_quotient_basis(A.cols(), m)


def test_elimination_of_dense_integral_matrices():
    """Dense integral matrices larger than the drawn ones (entries in -9..9)
    eliminate as the seed loops do, in well under a second: a 25 x 25 one
    (reduced form, pivots, rank), and the quotient of 25-space by 20 columns,
    read off the pivots of the reduced [columns | identity].  A fraction-free
    elimination whose entries grow with the rank would stall here."""
    rng = random.Random(0)
    A = Matrix([[rng.randint(-9, 9) for _ in range(25)] for _ in range(25)])
    R, pivots = A.rref()
    assert (R.rows, pivots) == seed_rref(A) and A.rank() == len(pivots) == 25
    B = Matrix([[rng.randint(-9, 9) for _ in range(20)] for _ in range(25)])
    _, seed_pivots = seed_rref(Matrix([list(r) + [int(i == j) for j in range(25)] for i, r in enumerate(B.rows)]))
    assert quotient_basis(B.cols(), 25) == [p - 20 for p in seed_pivots if p >= 20]


VALID_LIE3 = {"abelian": abelian_cat, "glambda": glambda_cat, "scaling": scaling_cat}


def rand_fraction_vec(rng: random.Random, n: int):
    return tuple(Q(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.7 else Q(0)
                 for _ in range(n))


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(sorted(VALID_LIE3) + ["random-J-mu", "non-Lie-bracket"]),
       seed=st.integers(0, 2**32))
def test_cell_tables_match_component_formulas(case, seed):
    """The tabulated cell bracket (levels 0-2), Jacobiator and Identiator cells
    equal the component formulas on random non-basis arguments; level-m cells
    carry entries in every degree up to m."""
    rng = random.Random(seed)
    if case in VALID_LIE3:
        D = VALID_LIE3[case]()
    elif case == "random-J-mu":
        D = _with_random_constants(rng, glambda_cat())
    else:
        D = _with_random_constants(rng, from_linfinity(l1_only(rng, (3, 2, 1))), bracket=True)
    L = D.cat
    for m in range(3):
        a, b = (Cell(m, tuple(rand_fraction_vec(rng, L.dim(d)) for d in range(m + 1)))
                for _ in range(2))
        assert bracket_cells(D, a, b) == bracket_formula(D, a, b)
    x, y, z, u = (rand_fraction_vec(rng, L.dim(0)) for _ in range(4))
    assert J_cell(D, x, y, z) == J_formula(D, x, y, z)
    assert mu_cell(D, x, y, z, u) == mu_formula(D, x, y, z, u)


# -- the flat-coordinate categorical kernel against the Cell-based oracle --

@settings(max_examples=40, deadline=None)
@given(dims=st.tuples(st.integers(1, 3), st.integers(0, 2), st.integers(0, 2)),
       seed=st.integers(0, 2**32))
def test_flat_structure_maps_match_component_formulas(dims, seed):
    """Each structure map of LinearNCat and its level matrix equal the
    component formula on random Fraction cells; a random non-composable pair
    raises with the same mismatch."""
    rng = random.Random(seed)
    L = from_chain(rand_chain3(rng, dims))
    C = SeedCat(L)
    rand_cell = lambda m: Cell(m, tuple(rand_fraction_vec(rng, L.dim(d)) for d in range(m + 1)))
    v0 = rand_fraction_vec(rng, L.dim(0))
    for level in range(L.n + 1):
        assert L.identity(0, v0, level) == flat(C.cell_from_v0(v0, level))
    for m in range(L.n + 1):
        a = rand_cell(m)
        assert L.unflatten(m, L.flatten(a)) == a
        for code in L.spanning_codes(m) + [(None,) * (m + 1)]:
            assert L.coded(code) == flat(C.coded_cell(code))
        for k in range(m + 1):
            assert L.source(m, flat(a), k) == flat(C.source_iter(a, k))
            assert L.target(m, flat(a), k) == flat(C.target_iter(a, k))
        for k in range(L.n - m + 1):
            assert L.identity(m, flat(a), k) == flat(C.identity_iter(a, k))
        if m >= 1:
            assert L.s_matrix_level(m).apply(flat(a)) == flat(C.source(a))
            assert L.t_matrix_level(m).apply(flat(a)) == flat(C.target(a))
        if m < L.n:
            assert L.i_matrix_level(m).apply(flat(a)) == flat(C.identity(a))
        for p in range(m):
            k = m - p
            free = Cell(m, tuple(vzero(L.dim(d)) if d <= p else rand_fraction_vec(rng, L.dim(d))
                                 for d in range(m + 1)))
            b = C.identity_iter(C.target_iter(a, k), k) + free
            assert L.compose(m, flat(a), flat(b), p) == flat(C.compose(a, b, p))
            for code in L.spanning_codes(m):
                assert L.right_factor(m, flat(a), code, p) == flat(C.right_factor(a, code, p))
            c = rand_cell(m)
            if not C.composable(a, c, p):
                errors = []
                for compose in (lambda: L.compose(m, flat(a), flat(c), p),
                                lambda: C.compose(a, c, p)):
                    try:
                        compose()
                    except ComposabilityError as e:
                        errors.append(vsub(flat(e.left), flat(e.right)))
                assert len(errors) == 2 and errors[0] == errors[1] and any(errors[0])


def lie3_sample(case: str, rng: random.Random) -> Lie3Data:
    """A valid structure of a family, or one corrupted by random constants."""
    if case == "abelian":
        return abelian_cat((rng.randint(2, 3), rng.randint(1, 2), rng.randint(1, 2)),
                           seed=rng.randrange(2**32))
    if case == "glambda":
        return glambda_cat(rng.randint(2, 3))
    if case == "scaling":  # a random closed 4-cochain as mu
        c = {}
        for b in ce_cocycles4(scaling_brackets(4), 4):
            s = Q(rng.randint(-2, 2))
            c.update({k: c.get(k, Q(0)) + s * v for k, v in b.items()})
        return scaling_cat(c, n=4)
    if case == "random-J-mu":
        return _with_random_constants(rng, glambda_cat(rng.randint(2, 3)))
    dims = (rng.randint(2, 3), rng.randint(1, 2), 1)
    return _with_random_constants(rng, from_linfinity(l1_only(rng, dims)), bracket=True)


@settings(max_examples=8, deadline=None)
@given(case=st.sampled_from(["abelian", "glambda", "scaling", "random-J-mu", "non-Lie-bracket"]),
       seed=st.integers(0, 2**32))
@example(case="non-Lie-bracket", seed=0)  # J and the V1 part of eta nonzero: these two
@example(case="random-J-mu", seed=0)  # catch a wrong Identiator table on every run
def test_flat_checks_match_cell_oracle(case, seed):
    """The four categorical checks give the Cell-based oracle's reports:
    the same failures, witnesses, residuals and checked inputs, less the
    witnesses that only the oracle's retired comparisons record; those
    comparisons never fail."""
    D = lie3_sample(case, random.Random(seed))
    oracle = (seed_check_bifunctor(D), seed_check_jacobiator(D), seed_check_identiator(D),
              seed_check_coherence(D))
    assert (check_bifunctor(D), check_jacobiator(D), check_identiator(D),
            check_coherence(D)) == oracle
    assert not retired_failures(oracle)


def test_non_lie_family_has_v0_acting_on_v2():
    """The non-Lie family draws l2 on V0 x V2 too (V1 x V1 stays zero), so
    the oracle tests see V0 acting on V2: the explicit example of
    ``test_flat_checks_match_cell_oracle`` has such an entry and fails
    ``naturality-v2``, and so does the sample of the strict xfail."""
    for seed in (0, 24):
        D = lie3_sample("non-Lie-bracket", random.Random(seed))
        assert any(k[1][0] == 2 for k, _ in D.bracket_constants.entries())
        assert "naturality-v2" in {f.identity for f in check_jacobiator(D).failures}


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32))
@example(seed=0)
def test_alpha_cells_have_the_five_fold_bracket_as_v0_block(seed):
    """The coherence chains are evaluated above V0 only (``lie3._Plan``).
    That drops nothing: on random invalid data (a non-Lie bracket with V0
    acting on V2, random J and mu) and random non-integral 0-cells, each of
    the oracle's four alpha cells has V0 component [[[[x,y],z],u],v], so the
    V0 block of the residual is 0; ``alpha_cell``, which adds that bracket
    back, and ``coherence_residual`` equal the oracle's cells in full."""
    rng = random.Random(seed)
    D = lie3_sample("non-Lie-bracket", rng)
    assume(any(k[1][0] == 2 for k, _ in D.bracket_constants.entries()))
    n = D.cat.dim(0)
    args = [tuple(Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)) for _ in range(5)]
    source = args[0]
    for w in args[1:]:
        source = bracket_objects(D, source, w)
    memo = {}
    for i in (1, 2, 3, 4):
        cell = seed_alpha_cell(D, i, *args, memo)
        assert cell.components[0] == source, i
        assert alpha_cell(D, i, *args) == cell, i
    res = coherence_residual(D, *args)
    assert res == seed_coherence_residual(D, *args, memo) and not any(res.components[0])


def sample_421() -> Lie3Data:
    """A (4,2,1) sample with t != 0 on V2 (d1 has columns (1,0,1,0) and 0,
    d2 = e_1) and random bracket, J and mu."""
    space = GradedSpace((4, 2, 1))
    l1 = build_multimap(1, -1, space, [(((1, 0),), (1, 0, 1, 0)), (((2, 0),), (0, 1))])
    A = LInfinityData(space, l1, MultiMap.zero(2, 0, space), MultiMap.zero(3, 1, space),
                      MultiMap.zero(4, 2, space))
    return _with_random_constants(random.Random(0), from_linfinity(A), bracket=True)


def test_checks_with_t_on_v2_and_mu_match_cell_oracle():
    """The (4,2,1) sample has mu != 0 together with V1 != 0: the inverse
    along 1-cells in the coherence law adds a nonzero t a, which no sample of
    ``lie3_sample`` does."""
    D = sample_421()
    assert D.cat.t_matrix(2).col(0) == (0, 1) and D.mu.coeffs
    assert check_coherence(D) == seed_check_coherence(D)
    assert check_identiator(D) == seed_check_identiator(D)


def edge_samples() -> list[Lie3Data]:
    """Structures at the edges of the tabulated naturality squares: empty V0
    or empty V1 and V2 (then there are no squares, or only identity alphas),
    an empty bracket table with random J and mu, a V1 alpha with t f != 0,
    the (4,2,1) sample, and an action on V2 that is not a representation."""
    def sample(seed, dims, bracket=True):
        rng = random.Random(seed)
        return _with_random_constants(rng, from_linfinity(l1_only(rng, dims)), bracket=bracket)
    out = [sample(seed, dims) for seed, dims in
           enumerate([(0, 1, 1), (1, 0, 0), (0, 0, 0), (2, 0, 0)])]
    empty_bracket = sample(4, (4, 1, 1), bracket=False)
    assert not empty_bracket._bracket_table and empty_bracket.J.coeffs
    t_on_v1 = sample(5, (2, 2, 1))
    assert not t_on_v1.cat.t_matrix(1).is_zero()
    return out + [empty_bracket, t_on_v1, sample_421(), action_not_a_representation()]


def test_tabulated_squares_match_cell_oracle_on_edge_samples():
    """check_jacobiator and check_identiator give the Cell-based oracle's
    reports on the edge samples, and these fail in every family of the two
    checks: a composite that is undefined, the boundary of J or mu, and a
    square whose residual lies in V1 or only in V2, in each of the two."""
    seen = set()
    for D in edge_samples():
        for check, seed_check in ((check_jacobiator, seed_check_jacobiator),
                                  (check_identiator, seed_check_identiator)):
            rep = check(D)
            assert rep == seed_check(D), (D.space.dims, rep.name)
            seen.update(f.identity for f in rep.failures)
    assert {"composable", "target", "naturality-v1", "naturality-v2", "modification-v1",
            "modification-v2"} <= seen


def test_coherence_plan_matches_seed_on_all_ordered_tuples():
    """The coherence plan gives the Cell-based oracle's report on every
    ordered quintuple of the edge samples: V0 empty or of dim 1 or 2, V1 = 0
    (its J and 1-cell bracket terms dead), an empty bracket table, t != 0 on
    V1, and the (4,2,1) sample, with t != 0 on V2, mu != 0, V1 != 0 and
    every restricted table nonempty.  alpha_cell and
    coherence_residual, which run the plan without a memo, equal the
    oracle's cells on random non-integral 0-cells."""
    rng = random.Random(19)
    failed = 0
    for D in edge_samples():
        n = D.cat.dim(0)
        rep = check_coherence(D, itertools.product(range(n), repeat=5))
        assert rep == seed_check_coherence(D, itertools.product(range(n), repeat=5)), D.space.dims
        failed += not rep.passed
        for _ in range(3 if n else 0):
            args = [tuple(Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
                    for _ in range(5)]
            for i in (1, 2, 3, 4):
                assert alpha_cell(D, i, *args) == seed_alpha_cell(D, i, *args), (D.space.dims, i)
            assert coherence_residual(D, *args) == seed_coherence_residual(D, *args)
    assert failed and all(sample_421()._above_v0.values())


def test_coherence_matches_seed_on_every_ordering_of_five_distinct_0_cells():
    """The order-5 side of ``check_coherence``, expanded once per sorted
    quintuple and read with each ordering's sign, gives the oracle's report
    (which expands every ordering) on the 120 orderings of five distinct
    0-cells, for a (5,0,1) mu that is not a cocycle: the order-5 residual
    there is nonzero, so a wrong sign would break the agreement."""
    D = scaling_cat()
    pert = build_multimap(4, 2, D.space, [(((0, 1), (0, 2), (0, 3), (0, 4)), (Q(1),))])
    D = Lie3Data(D.cat, D.bracket_constants, D.J, D.mu + pert)
    tuples = list(itertools.permutations(range(5)))
    rep = check_coherence(D, tuples)
    assert rep == seed_check_coherence(D, tuples)
    assert {f.identity for f in rep.failures} == {"coherence"} and len(rep.failures) == 120


@pytest.mark.parametrize("case, seed", [("non-Lie-bracket", 24), ("random-J-mu", 5)])
def test_chains_match_seed_composites_on_all_ordered_tuples(case, seed):
    """alpha_cell (i = 1..4) and eta_epsilon equal the Cell-based oracle's
    composites on every ordered tuple of basis 0-cells, on samples with
    dim V0 = 3, V1 != 0 and a J with a nonzero V1 part, so that every
    restricted table is nonempty.  The checks compare only canonical
    quintuples, where a dropped term of a later factor can cancel or
    vanish; here it cannot hide."""
    D = lie3_sample(case, random.Random(seed))
    n = D.cat.dim(0)
    assert n == 3 and all(D._above_v0.values())
    e = Matrix.eye(n).cols()
    for key in itertools.product(range(n), repeat=4):
        args = [e[i] for i in key]
        assert eta_epsilon(D, *args) == seed_eta_epsilon(D, *args), key
    for key in itertools.product(range(n), repeat=5):
        args = [e[i] for i in key]
        for i in (1, 2, 3, 4):
            assert alpha_cell(D, i, *args) == seed_alpha_cell(D, i, *args), (i, key)


def test_chains_with_v1_zero_match_closed_forms_on_all_ordered_tuples():
    """With V1 = 0, J's restricted table is empty, so the chains skip every
    J term and every bracket of 1-cells (each brackets a J term): the plan
    reads no J, and each bracket above V0 that it reads has a mu argument.  Each
    alpha cell is then ([[[[x,y],z],u],v], -, the V2 closed form) on every
    ordered quintuple.  mu is antisymmetric, so it is nonzero only from
    dim V0 = 4 on; there the Cell-based oracle would take about 14 s."""
    rng = random.Random(5)
    S = _with_random_constants(rng, from_linfinity(l1_only(rng, (4, 0, 1))))
    D = Lie3Data(S.cat, rand_brackets(rng, (4, 0, 1), density=1.0).l2, S.J, S.mu)
    tables = D._above_v0
    assert not tables["J"] and tables["br"] and tables["mu"]
    reads = {n: table for n, table, _, _ in D._coherence_plan.steps}
    assert all(table is not tables["J"] for table in reads.values())
    assert all(any(reads.get(a) is tables["mu"] for a in args)
               for _, table, args, _ in D._coherence_plan.steps if table is tables["br"])
    l2, _ = _l(D)
    e = Matrix.eye(4).cols()
    for key in itertools.product(range(4), repeat=5):
        args = [e[i] for i in key]
        x, y, z, u, v = (_gv0(D, w) for w in args)
        top = l2(l2(l2(l2(x, y), z), u), v).component(0)
        for i in (1, 2, 3, 4):
            assert alpha_cell(D, i, *args).components[::2] == (
                top, alpha_v2_oracle(D, i, *args)), (i, key)


def test_coherence_fails_on_some_ordered_quintuple():
    """The sample of ``test_canonical_coherence_misses_a_failure`` does fail
    the coherence law: on 40 ordered quintuples, the first (0,1,0,1,2)."""
    D = lie3_sample("non-Lie-bracket", random.Random(24))
    assert D.space.dims == (3, 1, 1)
    rep = check_coherence(D, itertools.product(range(3), repeat=5))
    coh = [f for f in rep.failures if f.identity == "coherence"]
    assert len(coh) == 40 and coh[0].witness == ((0, 0), (0, 1), (0, 0), (0, 1), (0, 2))


@pytest.mark.xfail(strict=True, reason="canonical quintuples do not decide the coherence "
                   "law of a structure that fails other laws (ROADMAP, open item 1)")
def test_canonical_coherence_misses_a_failure():
    """A known wrong PASS: ``check_coherence`` passes this structure on its
    canonical quintuples."""
    assert not check_coherence(lie3_sample("non-Lie-bracket", random.Random(24))).passed


def non_integral_samples() -> list[Lie3Data]:
    """The four kinds of special valid sample, conjugated by a diagonal change
    of basis with entries 2, 1/3 and -3/2.  Where V0 x V1 (or else V0 x V0)
    has a basis pair, 1/2 is added to the first coordinate of l2 on it, so
    that the chain rule (or the Jacobi identity) fails on some samples."""
    diag = (Q(2), Q(1, 3), Q(-3, 2))
    out = []
    for A in special_valid_samples(random.Random(15), 4):
        dims = A.space.dims
        A = conjugate(A, [Matrix([[diag[(d + i) % 3] if i == j else 0 for j in range(n)]
                                  for i in range(n)], ncols=n) for d, n in enumerate(dims)])
        D = from_linfinity(A)
        key = ((0, 0), (1, 0)) if dims[1] else ((0, 0), (0, 1)) if dims[0] > 1 else None
        if key is not None:
            d = key[1][0]
            bump = MultiMap(2, 0, A.space, {key: (Q(1, 2),) + (Q(0),) * (dims[d] - 1)})
            D = Lie3Data(D.cat, D.bracket_constants + bump, D.J, D.mu)
        out.append(D)
    return out


def test_non_integral_structures_match_cell_oracle(tmp_path, capsys):
    """On structures whose constants are not all integral, so that the tables
    mix int and Fraction coefficients, the four categorical checks and the
    homotopy-algebra checks give their oracles' reports (the oracle's retired
    comparisons, which never fail, aside), and ``check
    --format json`` prints the bytes rendered from the oracle reports."""
    samples = non_integral_samples()
    tables = [v for D in samples for t in (D._bracket_table, D._J_table, D._mu_table)
              for pairs in t.values() for _, v in pairs]
    assert any(type(v) is Q for v in tables) and any(type(v) is int for v in tables)
    failed = 0
    for D in samples:
        oracle = (seed_check_bifunctor(D), seed_check_jacobiator(D),
                  seed_check_identiator(D), seed_check_coherence(D))
        assert (check_bifunctor(D), check_jacobiator(D), check_identiator(D),
                check_coherence(D)) == oracle
        assert not retired_failures(oracle)
        A = lie3._raw_linfinity(D)
        assert check_all(A) == [seed_check_condition(A, n) for n in range(1, 6)]
        p = tmp_path / "lie3.json"
        p.write_text(render_lie3(D))
        passed = all(rep.passed for rep in oracle)
        failed += not passed
        assert main(["check", str(p), "--format", "json"]) == (0 if passed else 1)
        report = {"command": "check", "checks": _render_checks(oracle), "passed": passed}
        assert capsys.readouterr().out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert failed >= 2


@settings(max_examples=20, deadline=None)
@given(kind=st.integers(0, 3), seed=st.integers(0, 2**32))
def test_spec_roundtrip_on_random_valid_structures(kind, seed):
    """build(parse(render(X))) gives back X's maps and renders to the same bytes.

    The lie3 structure is assembled the way ``from_linfinity`` does it; the
    sample is valid and special by construction."""
    rng = random.Random(seed)
    A = special_valid_samples(rng, kind + 1)[kind]
    meta = {"seed": str(seed)}
    text = render_linfinity(A, meta)
    B = build(parse_spec(text))
    assert (B.l1, B.l2, B.l3, B.l4) == (A.l1, A.l2, A.l3, A.l4)
    assert render_linfinity(B, meta) == text
    D = Lie3Data(LinearNCat(A.space, A.l1), A.l2, A.l3, -A.l4)
    text = render_lie3(D, meta)
    E = build(parse_spec(text))
    assert (E.cat.t_data, E.bracket_constants, E.J, E.mu) == \
        (D.cat.t_data, D.bracket_constants, D.J, D.mu)
    assert render_lie3(E, meta) == text


# -- one basis of composable pairs against the seed products --------------
#
# A seed family takes every slot (a cell, or the free part of a right factor)
# zero or a zero-or-basis mix; each of its members is the sum of the one-hot
# codes of its nonzero components, which must all lie in the library's basis
# (``composable_codes``), and a residual that is bilinear in two composable
# pairs must be the sum of the basis residuals it expands into.

def one_hot_parts(code) -> list[tuple]:
    """The one-hot codes whose cells sum to coded_cell(code)."""
    return [tuple(i if k == d else None for k in range(len(code)))
            for d, i in enumerate(code) if i is not None]


def pair_parts(codes) -> list[tuple]:
    """The basis codes (a, t) of composable pairs that sum to the pair (a, t) = codes."""
    zero = (None,) * len(codes[0])
    return ([(e, zero) for e in one_hot_parts(codes[0])]
            + [(zero, e) for e in one_hot_parts(codes[1])])


def raw_compose(a: Cell, b: Cell, p: int) -> Cell:
    """The component formula of a o_p b, evaluated whether or not a and b compose."""
    return Cell(a.level, a.components[:p + 1] + tuple(
        vadd(x, y) for x, y in zip(a.components[p + 1:], b.components[p + 1:])))


def composition_residual(D, p, v, vp, w, wp) -> tuple:
    """The composability mismatch t^k[v,w] - s^k[v',w'] followed by
    [v o v', w o w'] - [v,w] o [v',w'], composites by the component formula;
    both parts are bilinear in the pairs (v, v') and (w, w')."""
    L, br = SeedCat(D.cat), lambda a, b: bracket_cells(D, a, b)
    k = v.level - p
    mismatch = L.target_iter(br(v, w), k) - L.source_iter(br(vp, wp), k)
    res = br(raw_compose(v, vp, p), raw_compose(w, wp, p)) - raw_compose(br(v, w), br(vp, wp), p)
    return flat(mismatch) + flat(res)


def expands(residual, seed_pairs, basis_pair, basis: set) -> bool:
    """Assert that every seed pair expands into pairs of ``basis`` and that the
    residual of two seed pairs is the sum of the residuals of the basis pairs
    they expand into; return the seed family's verdict."""
    cache = {}

    def at(x, y):
        if (x, y) not in cache:
            cache[x, y] = residual(*basis_pair(x), *basis_pair(y))
        return cache[x, y]

    holds = True
    for (kx, *x), (ky, *y) in itertools.product(seed_pairs, repeat=2):
        res = residual(*x, *y)
        assert set(pair_parts(kx)) <= basis
        want = [Q(0)] * len(res)
        for px in pair_parts(kx):
            for py in pair_parts(ky):
                want = [a + b for a, b in zip(want, at(px, py))]
        assert res == tuple(want)
        holds &= not any(res)
    return holds


@settings(max_examples=12, deadline=None)
@given(case=st.sampled_from(sorted(VALID_LIE3) + ["non-Lie-bracket"]),
       seed=st.integers(0, 2**32))
def test_bifunctor_composition_basis_matches_seed_products(case, seed):
    rng = random.Random(seed)
    if case in VALID_LIE3:
        D = VALID_LIE3[case]()
    else:
        D = _with_random_constants(rng, from_linfinity(l1_only(rng, (2, 1, 1))), bracket=True)
    L, C = D.cat, SeedCat(D.cat)
    holds = True
    for m in (1, 2):
        for p in range(m):
            def basis_pair(codes):
                v = C.coded_cell(codes[0])
                return v, seed_pad_composable(L, v, C.coded_cell(codes[1]).components[p + 1:], p)
            holds &= expands(lambda *vw: composition_residual(D, p, *vw),
                             seed_bifunctor_factors(L, m, p), basis_pair,
                             set(L.composable_codes(m, p)))
    failures = [f for f in check_bifunctor(D).failures
                if f.identity in ("composition", "composable")]
    assert holds == (not failures)


@settings(max_examples=12, deadline=None)
@given(dims=st.tuples(st.integers(1, 2), st.integers(0, 2)), corrupt=st.booleans(),
       seed=st.integers(0, 2**32))
def test_compose_tensor_identity_basis_matches_seed_products(dims, corrupt, seed):
    """Valid tensor categories, and ones whose raw composition is shifted by
    a random linear map of the stacked left factors (the identity stays
    bilinear)."""
    rng = random.Random(seed)
    L = from_chain(rand_chain2(rng, dims))
    C = SeedCat(L)
    tc = tensor_product(L, L)
    if corrupt:
        shift = sparse_matrix(rng, tc.raw_dim(1), tc.raw_dim(1), 0.8)
        tc = SimpleNamespace(compose_raw=lambda U, W, m, p, real=tc.compose_raw:
                             real(U, W, m, p) + shift @ U)

    def basis_pair(codes):
        v = C.coded_cell(codes[0])
        return v, seed_pad_composable(L, v, C.coded_cell(codes[1]).components[1:], 0)
    holds = expands(lambda v, w, vp, wp: seed_tensor_identity_residual(L, tc, v, w, vp, wp),
                    seed_tensor_identity_pairs(L), basis_pair, set(L.composable_codes(1, 0)))
    assert compose_tensor_identity(L, tc) == holds


@settings(max_examples=20, deadline=None)
@given(valid=st.booleans(), seed=st.integers(0, 2**32))
def test_conjugation_preserves_every_order_verdict(valid, seed):
    """Verdicts only: a change of basis keeps each order's pass/fail but may
    change how many basis tuples fail."""
    rng = random.Random(seed)
    if valid:
        kind = rng.randrange(4)
        data = special_valid_samples(rng, kind + 1)[kind]
    else:
        dims = (rng.randint(1, 3), rng.randint(0, 2), rng.randint(0, 1))
        data = rand_brackets(rng, dims, density=rng.choice([0.2, 0.5, 1.0]))
    before = [r.passed for r in check_all(data)]
    assert [r.passed for r in check_all(rand_conjugate(rng, data))] == before


two_term_dims_st = st.tuples(st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=40, deadline=None)
@given(dims=two_term_dims_st, target_dims=two_term_dims_st, trunc=st.integers(1, 4),
       seed=st.integers(0, 2**32))
def test_nerve_and_nerve_map_match_seed_formulas(dims, target_dims, trunc, seed):
    """Faces, degeneracies and functor levels built from the category's
    structure maps equal the seed's kernel-coordinate formulas, entry by entry."""
    rng = random.Random(seed)
    C, D = rand_chain2(rng, dims), rand_chain2(rng, target_dims)
    L, M = from_chain(C), from_chain(D)
    for K in (L, tensor_product(L, L).cat):
        S = nerve(K, trunc)
        assert (S.dims, S.faces, S.degens) == seed_nerve(K, trunc)
    f0, f1 = rand_chain_map(rng, C, D)
    F = lift_functor(L, M, [f0, block_diag([f0, f1])])
    assert nerve_map(F, trunc) == seed_nerve_map(F, trunc)


@settings(max_examples=20, deadline=None)
@given(dims=st.tuples(st.integers(1, 2), st.integers(0, 2), st.integers(0, 1)),
       target_dims=st.tuples(st.integers(1, 2), st.integers(0, 2), st.integers(0, 1)),
       seed=st.integers(0, 2**32))
def test_lifted_functors_preserve_composition(dims, target_dims, seed):
    """``lift_functor`` checks sources, targets and identities only.  The
    functor it lifts from a random chain map takes each composite o_p of the
    seed's zero-or-basis composable pairs to the composite of the images, by
    the component formulas (``SeedCat``)."""
    rng = random.Random(seed)
    C, D = rand_chain3(rng, dims), rand_chain3(rng, target_dims)
    f = rand_chain_map(rng, C, D)
    L, M = from_chain(C), from_chain(D)
    F = lift_functor(L, M, [block_diag(f[:m + 1]) for m in range(3)])
    SL, SM = SeedCat(L), SeedCat(M)
    for m in (1, 2):
        for p in range(m):
            for a, b in seed_spanning_pairs(L, m, p):
                assert F.apply(SL.compose(a, b, p)) == SM.compose(F.apply(a), F.apply(b), p)


def rand_complex(rng: random.Random, dims) -> ChainComplexT:
    if len(dims) == 1:
        return ChainComplexT(dims, ())
    return (rand_chain2 if len(dims) == 2 else rand_chain3)(rng, tuple(dims))


complex_dims_st = st.lists(st.integers(0, 3), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(c_dims=complex_dims_st, d_dims=complex_dims_st,
       trunc=st.none() | st.integers(0, 6), seed=st.integers(0, 2**32))
def test_tensor_complex_matches_seed_loops(c_dims, d_dims, trunc, seed):
    """The Kronecker-block differentials and the layout equal the seed's
    entry-by-entry fill."""
    rng = random.Random(seed)
    C, D = rand_complex(rng, c_dims), rand_complex(rng, d_dims)
    T, layout = tensor_complex(C, D, trunc)
    assert (T.dims, T.diffs, layout) == seed_tensor_complex(C, D, trunc)


def tensor_with_drop(L, drop):
    """tensor_product(L, L) and the seed's dictionaries of it, both with the
    last kernel basis vector at level ``drop`` removed (none if drop is None
    or that level has no kernel vectors): every raw cell is in the component
    span of L ⊠ L, so only a removed vector makes vectors that are not."""
    tc = tensor_product(L, L)
    if drop is None or tc.cat.dim(drop) == 0:
        return tc, SeedTensorCoords(L, L)
    j = tc.cat.offsets[drop + 1] - 1  # its column in lift[m] for every m >= drop
    lift = tuple(B if m < drop else Matrix([r[:j] + r[j + 1:] for r in B.rows], ncols=B.ncols - 1)
                 for m, B in enumerate(tc.lift))
    short = TensorCat(L, L, short_component_cat(tc.cat, drop), lift,
                      tuple(B.left_inverse() for B in lift))
    return short, SeedTensorCoords(L, L, drop)


def outcome(f):
    """f(), or the message of the ValueError it raises."""
    try:
        return f()
    except ValueError as e:
        return f"ValueError: {e}"


@settings(max_examples=40, deadline=None)
@given(dims=two_term_dims_st, drop=st.sampled_from([None, 0, 1]), seed=st.integers(0, 2**32))
def test_tensor_coordinates_match_seed_projection(dims, drop, seed):
    """raw_to_cell through the lift's left inverse gives the seed projection's
    coordinates, or its span error, on raw vectors in and outside the
    component span; cell_to_raw agrees with the seed's sum of lifts."""
    rng = random.Random(seed)
    L = from_chain(rand_chain2(rng, dims))
    tc, seed_tc = tensor_with_drop(L, drop)
    for m in range(L.n + 1):
        lift = tc.lift[m]
        inside = [lift.apply(rand_vec(rng, lift.ncols)) for _ in range(3)] + lift.cols()
        outside = [rand_vec(rng, lift.nrows) for _ in range(3)]
        if lift.ncols < lift.nrows:  # the removed vector, lifted to level m
            full = tensor_product(L, L)
            outside.append(full.lift[m].col(full.cat.offsets[drop + 1] - 1))
        for raw in inside + outside:
            assert (outcome(lambda: flat(tc.raw_to_cell(m, raw)))
                    == outcome(lambda: flat(seed_tc.raw_to_cell(m, raw))))
        for raw in inside:
            cell = seed_tc.raw_to_cell(m, raw)
            assert tc.cell_to_raw(cell) == seed_tc.cell_to_raw(cell) == tuple(raw)


@settings(max_examples=40, deadline=None)
@given(dims=two_term_dims_st, n=st.integers(0, 3), drop=st.sampled_from([None, 0, 1]),
       seed=st.integers(0, 2**32))
def test_pairing_matrix_matches_seed_pairs(dims, n, drop, seed):
    """The pairing built from Kronecker squares of the simplex-reading maps
    equals the seed's pair-by-pair matrix, or raises the same span error."""
    L = from_chain(rand_chain2(random.Random(seed), dims))
    S = nerve(L, max(n, 1))
    tc, seed_tc = tensor_with_drop(L, drop)
    assert (outcome(lambda: _pairing_matrix(L, tc, n))
            == outcome(lambda: seed_pairing_matrix(L, S, seed_tc, tc.cat, n)))


@settings(max_examples=20, deadline=None)
@given(dims=two_term_dims_st, seed=st.integers(0, 2**32))
def test_obstruction_demo_matches_seed_nerves(dims, seed):
    """Reading the two inner faces d_2 directly gives the report of building
    both truncated nerves and the seed's pair-by-pair pairing."""
    L = from_chain(rand_chain2(random.Random(seed), dims))
    assert obstruction_demo(L) == seed_obstruction_demo(L)


@settings(max_examples=25, deadline=None)
@given(s_dims=two_term_dims_st, t_dims=st.none() | two_term_dims_st, trunc=st.integers(1, 3),
       seed=st.integers(0, 2**32))
def test_ez_matches_seed_basis_loop(s_dims, t_dims, trunc, seed):
    """The shuffle map built from signed Kronecker blocks equals the seed's
    sum over shuffles, one pair of Moore basis vectors at a time (T = S when
    t_dims is None)."""
    rng = random.Random(seed)
    S = nerve(from_chain(rand_chain2(rng, s_dims)), trunc)
    T = S if t_dims is None else nerve(from_chain(rand_chain2(rng, t_dims)), trunc)
    assert ez(S, T) == seed_ez(S, T)
