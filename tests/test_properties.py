"""Property tests: compiled evaluation and residuals against the seed oracle,
the chi sign calculus, the zero-skipping linear algebra against the seed
dense loops, the compiled lie3 cell operations against their component
formulas, and the spec-file parse/render roundtrip."""

import itertools
import random
from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from shlie3.graded import (GradedSpace, GradedVector, Permutation,
                           build_multimap, koszul_chi)
from shlie3.lie3 import (Lie3Data, J_cell, _bracket_formula, _J_formula, _mu_formula,
                         bracket_cells, from_linfinity, mu_cell)
from shlie3.lincat import Cell, LinearNCat
from shlie3.linalg import Matrix, quotient_basis
from shlie3.linfinity import linfty_residual
from shlie3.specfile import build_lie3, build_linfinity, parse_spec, render_lie3, render_linfinity

from helpers import (l1_only, rand_brackets, seed_eval, seed_kron, seed_linfty_residual,
                     seed_matmul, seed_quotient_basis, seed_rref, seed_solve_matrix,
                     sparse_matrix, special_valid_samples)
from test_lie3 import _with_random_constants, abelian_cat, glambda_cat, scaling_cat

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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.permutations(range(1, n + 1)), st.permutations(range(1, n + 1)),
    st.lists(st.integers(0, 2), min_size=n, max_size=n))))
def test_chi_multiplicative(case):
    s, t, deg = Permutation(tuple(case[0])), Permutation(tuple(case[1])), case[2]
    assert koszul_chi(s.compose(t), deg) == koszul_chi(s, t.apply(deg)) * koszul_chi(t, deg)


shape_st = st.integers(0, 6)
zero_share_st = st.sampled_from([0.0, 0.3, 0.6, 0.9])


@settings(max_examples=80, deadline=None)
@given(m=shape_st, k=shape_st, n=shape_st, zero_share=zero_share_st,
       seed=st.integers(0, 2**32))
def test_sparse_kernel_matches_seed_dense_loops(m, k, n, zero_share, seed):
    rng = random.Random(seed)
    A = sparse_matrix(rng, m, k, zero_share)
    B = sparse_matrix(rng, k, n, zero_share)
    assert A @ B == seed_matmul(A, B)
    v = sparse_matrix(rng, k, 1, zero_share)
    assert A.apply(v.col(0)) == seed_matmul(A, v).col(0)
    assert A.kron(B) == seed_kron(A, B)
    assert A.rref() == seed_rref(A)
    C = sparse_matrix(rng, m, n, zero_share)
    assert A.solve_matrix(C) == seed_solve_matrix(A, C)
    # a right-hand side in the column space always has a solution
    X = A.solve_matrix(A @ B)
    assert X is not None and X == seed_solve_matrix(A, A @ B)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 7), k=shape_st, zero_share=zero_share_st,
       seed=st.integers(0, 2**32))
def test_left_inverse_and_quotient_basis(m, k, zero_share, seed):
    rng = random.Random(seed)
    A = sparse_matrix(rng, m, k, zero_share)
    X = A.left_inverse()
    independent = len(seed_rref(A)[1]) == k
    assert (X is not None) == independent
    if independent:
        assert X @ A == Matrix.eye(k)
    assert quotient_basis(A.cols(), m) == seed_quotient_basis(A.cols(), m)


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
        assert bracket_cells(D, a, b) == _bracket_formula(D, a, b)
    x, y, z, u = (rand_fraction_vec(rng, L.dim(0)) for _ in range(4))
    assert J_cell(D, x, y, z) == _J_formula(D, x, y, z)
    assert mu_cell(D, x, y, z, u) == _mu_formula(D, x, y, z, u)


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
    B = build_linfinity(parse_spec(text))
    assert (B.l1, B.l2, B.l3, B.l4) == (A.l1, A.l2, A.l3, A.l4)
    assert render_linfinity(B, meta) == text
    D = Lie3Data(LinearNCat(A.space, A.l1), A.l2, A.l3, -A.l4)
    text = render_lie3(D, meta)
    E = build_lie3(parse_spec(text))
    assert (E.cat.t_data, E.bracket_constants, E.J, E.mu) == \
        (D.cat.t_data, D.bracket_constants, D.J, D.mu)
    assert render_lie3(E, meta) == text
