import itertools
import random
from fractions import Fraction as Q

import pytest

from shlie3.chain import ChainComplexT
from shlie3.graded import GradedSpace, MultiMap, build_multimap
from shlie3.linalg import Matrix
from shlie3.lincat import (ComposabilityError, LiftError, LinearNCat,
                           cartesian_product,
                           from_chain, lift_functor,
                           TensorCat, tensor_product, to_chain)

from helpers import (SeedCat, basis_cell, chain_iso_invariants, flat, kernel_bases, rand_chain3,
                     rand_matrix, seed_axioms_hold, seed_pad_composable, seed_spanning_cells,
                     short_component_cat, unit_category)


def rand_cat(rng, dims=None) -> LinearNCat:
    return from_chain(rand_chain3(rng, dims))


def test_boundary_calculus_hand_example():
    # t(v0, v1) = v0 + d v1 with d = [[1], [0]]
    C = ChainComplexT((2, 1), (Matrix([[1], [0]]),))
    L = from_chain(ChainComplexT((2, 1, 0), (C.diff(1), Matrix.zeros(1, 0))))
    f = (Q(2), Q(0), Q(3))
    assert L.source(1, f) == (Q(2), Q(0))
    assert L.target(1, f) == (Q(5), Q(0))
    assert L.identity(0, L.source(1, f)) == (Q(2), Q(0), Q(0))


def test_compose_hand_example():
    C = ChainComplexT((2, 1, 0), (Matrix([[1], [0]]), Matrix.zeros(1, 0)))
    L = from_chain(C)
    f = (Q(0), Q(1), Q(2))
    g = L.target(1, f) + (Q(5),)
    # vertical stacking adds the fiber components over the source of f
    assert L.compose(1, f, g, 0) == (Q(0), Q(1), Q(7))


def test_compose_rejects_mismatch():
    rng = random.Random(1)
    L = rand_cat(rng, (2, 1, 1))
    a = L.coded((None, 0))
    bad = tuple(c + 1 for c in L.target(1, a)) + a[L.dim(0):]  # its source is not t a
    with pytest.raises(ComposabilityError):
        L.compose(1, a, bad, 0)


def small_dims(rng):
    return (rng.randint(1, 2), rng.randint(0, 2), rng.randint(0, 1))


def test_axioms_on_random_categories():
    rng = random.Random(42)
    for k in range(12):
        L = rand_cat(rng, small_dims(rng))
        assert seed_axioms_hold(L, L.compose)
    L = rand_cat(rng, (3, 2, 2))
    assert seed_axioms_hold(L, L.compose)


def test_axioms_catch_corrupted_composition():
    rng = random.Random(5)
    L = rand_cat(rng, (2, 2, 1))

    def broken(m, a, b, p):
        c = L.compose(m, a, b, p)
        if m == 2 and p == 0:
            o = L.offsets[2]
            return c[:o] + tuple(x + 1 for x in c[o:])
        return c

    assert not seed_axioms_hold(L, broken)


def test_unique_composition_via_units():
    """The library's composition equals the one re-derived from the unit laws
    and linearity by the component formulas (``SeedCat``)."""
    rng = random.Random(7)
    for _ in range(10):
        L = rand_cat(rng)
        C = SeedCat(L)
        for m in range(1, 3):
            for p in range(m):
                for a in seed_spanning_cells(L, m):
                    for tail in itertools.islice(_tails(L, m, p), 6):
                        b = seed_pad_composable(L, a, tail, p)
                        assert L.compose(m, flat(a), flat(b), p) == flat(C.compose_via_units(a, b, p))


def _tails(L, m, p):
    opts = []
    for i in range(p + 1, m + 1):
        base = [tuple(Q(0) for _ in range(L.dim(i)))]
        for k in range(L.dim(i)):
            base.append(tuple(Q(1) if j == k else Q(0) for j in range(L.dim(i))))
        opts.append(base)
    return itertools.product(*opts)


def test_chain_roundtrips():
    rng = random.Random(11)
    for _ in range(10):
        C = rand_chain3(rng)
        L = from_chain(C)
        D = to_chain(L)
        assert D.dims == C.dims
        assert all(D.diff(n) == C.diff(n) for n in range(1, 3))
        assert from_chain(D) == L


def test_globular_matrices():
    rng = random.Random(13)
    L = rand_cat(rng, (2, 2, 2))
    for m in range(1, 3):
        ss = L.s_matrix_level(m - 1) @ L.s_matrix_level(m) if m > 1 else None
        assert (L.s_matrix_level(m) @ L.i_matrix_level(m - 1)) == Matrix.eye(L.level_dim(m - 1))
        assert (L.t_matrix_level(m) @ L.i_matrix_level(m - 1)) == Matrix.eye(L.level_dim(m - 1))


def test_lift_functor_identity_and_failure():
    rng = random.Random(17)
    L = rand_cat(rng, (2, 1, 1))
    maps = [Matrix.eye(L.level_dim(m)) for m in range(3)]
    F = lift_functor(L, L, maps)
    a = basis_cell(L, 2, 2, 0)
    assert F.apply(a) == a

    bad = list(maps)
    bad[1] = Matrix.zeros(L.level_dim(1), L.level_dim(1))
    with pytest.raises(LiftError):
        lift_functor(L, L, bad)


def test_functor_between_different_categories():
    # chain map levels induce a functor: project away V2
    C = ChainComplexT((2, 1, 1), (Matrix([[1], [1]]), Matrix.zeros(1, 1)))
    D = ChainComplexT((2, 1, 0), (Matrix([[1], [1]]), Matrix.zeros(1, 0)))
    L, M = from_chain(C), from_chain(D)
    maps = []
    for m in range(3):
        rows = []
        for r in range(M.level_dim(m)):
            rows.append([Q(1) if c == r else Q(0) for c in range(L.level_dim(m))])
        maps.append(Matrix(rows, ncols=L.level_dim(m)))
    F = lift_functor(L, M, maps)
    a = basis_cell(L, 1, 1, 0)
    assert F.apply(a).components[1] == a.components[1]


def test_cartesian_product_dims():
    rng = random.Random(19)
    L, M = rand_cat(rng, (2, 1, 1)), rand_cat(rng, (1, 1, 0))
    P = cartesian_product(L, M)
    assert P.space.dims == (3, 2, 1)
    assert seed_axioms_hold(P, P.compose)


def test_unit_category_tensor_is_neutral():
    rng = random.Random(23)
    L = rand_cat(rng, (2, 2, 1))
    K = unit_category(2)
    T = tensor_product(L, K).cat
    assert chain_iso_invariants(T) == chain_iso_invariants(L)


def test_tensor_product_is_valid_category():
    rng = random.Random(29)
    L, M = rand_cat(rng, (2, 1, 0)), rand_cat(rng, (1, 1, 0))
    tc = tensor_product(L, M)
    assert seed_axioms_hold(tc.cat, tc.cat.compose)


def test_tensor_raw_cell_roundtrip():
    rng = random.Random(31)
    L, M = rand_cat(rng, (2, 1, 1)), rand_cat(rng, (2, 1, 1))
    tc = tensor_product(L, M)
    for m in range(3):
        for v in kernel_bases(tc)[m]:
            cell = tc.raw_to_cell(m, v)
            assert tc.cell_to_raw(cell) == tuple(v)


def test_raw_to_cell_checks_span_membership():
    rng = random.Random(32)
    L = rand_cat(rng, (2, 1, 1))
    tc = tensor_product(L, L)
    for m in range(3):
        basis = kernel_bases(tc)[m]
        # drop the last kernel basis vector at level m, the last column of
        # lift[m]: it leaves the span
        lift = tc.lift[m]
        short = Matrix([r[:-1] for r in lift.rows], ncols=lift.ncols - 1)
        bad = TensorCat(tc.left, tc.right, short_component_cat(tc.cat, m),
                        tc.lift[:m] + (short,) + tc.lift[m + 1:],
                        tc.lift_inv[:m] + (short.left_inverse(),) + tc.lift_inv[m + 1:])
        for v in basis:
            assert tc.cell_to_raw(tc.raw_to_cell(m, v)) == tuple(v)
        for v in basis[:-1]:
            assert bad.cell_to_raw(bad.raw_to_cell(m, v)) == tuple(v)
        kept = tc.raw_to_cell(m, basis[0]).components
        assert bad.raw_to_cell(m, basis[0]).components == kept[:m] + (kept[m][:-1],)
        with pytest.raises(ValueError, match="not in the component span"):
            bad.raw_to_cell(m, basis[-1])
