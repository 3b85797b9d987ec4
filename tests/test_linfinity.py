import itertools
import random
from fractions import Fraction as Q

import pytest

from shlie3.graded import GradedSpace, GradedVector, MultiMap, build_multimap
from shlie3.linfinity import LInfinityData, check_all, check_condition, is_special

from helpers import (abelian_l3_l4, ce_differential, ce_cocycles4,
                     filiform_brackets, from_four_cocycle, graded_lie_data, l1_only, linfty_residual,
                     non_jacobi_data, rand_brackets, rand_conjugate,
                     scaling_brackets, seed_canonical_tuples, seed_check_condition,
                     seed_linfty_residual, two_term_data, zero_data)


def assert_valid(data, n_max=5):
    for rep in check_all(data, n_max):
        assert rep.passed, f"{rep.name}: {rep.failures[:2]}"


def test_zero_data_valid():
    assert_valid(zero_data((3, 2, 2)))


def test_l1_only_valid():
    rng = random.Random(1)
    for _ in range(5):
        assert_valid(l1_only(rng))


def test_l1_square_violation_detected():
    space = GradedSpace((1, 1, 1))
    l1 = build_multimap(1, -1, space, [(((1, 0),), (Q(1),)), (((2, 0),), (Q(1),))])
    data = LInfinityData(space, l1, MultiMap.zero(2, 0, space),
                         MultiMap.zero(3, 1, space), MultiMap.zero(4, 2, space))
    rep = check_condition(data, 1)
    assert not rep.passed
    assert any(f.witness == ((2, 0),) for f in rep.failures)


def test_abelian_l3_l4_valid():
    rng = random.Random(2)
    for _ in range(5):
        assert_valid(abelian_l3_l4(rng))


def test_jacobi_failure_detected_at_order_3():
    data = non_jacobi_data()
    assert check_condition(data, 1).passed
    assert check_condition(data, 2).passed
    assert not check_condition(data, 3).passed


def test_residual_hand_value():
    # order 2 on (f, x): l1 l2(x, f) - l2(l1 f, x) with x even, f odd
    space = GradedSpace((2, 1, 0))
    l1 = build_multimap(1, -1, space, [(((1, 0),), (Q(1), Q(0)))])
    l2 = build_multimap(2, 0, space, [((((0, 0), (1, 0))), (Q(1),))])
    data = LInfinityData(space, l1, l2,
                         MultiMap.zero(3, 1, space), MultiMap.zero(4, 2, space))
    x = GradedVector.basis_vector(space, 0, 0)
    f = GradedVector.basis_vector(space, 1, 0)
    res = linfty_residual(data, 2, [x, f])
    # l1(l2(x,f)) = l1(f) = e_{0,0}; l2(l1 f, x) = l2(e_{0,0}, x) = 0
    assert res.component(0) == (Q(1), Q(0))


def test_two_term_cocycle_data_valid():
    closed = ce_cocycles4(scaling_brackets())
    assert closed
    for c in closed[:2]:
        assert_valid(two_term_data(scaling_brackets(), c))


def test_non_cocycle_fails_exactly_order_5():
    bad = {(1, 2, 3, 4): Q(1)}
    assert ce_differential(scaling_brackets(), bad, 5, 4)  # really not closed
    data = two_term_data(scaling_brackets(), bad)
    reports = check_all(data, 5)
    for rep in reports[:4]:
        assert rep.passed
    assert not reports[4].passed


def test_filiform_every_cochain_closed():
    # the nilpotent table has zero CE differential on 4-cochains
    for quad in itertools.combinations(range(5), 4):
        assert not ce_differential(filiform_brackets(), {quad: Q(1)}, 5, 4)
    assert_valid(two_term_data(filiform_brackets(), {(1, 2, 3, 4): Q(1)}))


def test_orders_above_five_computed_zero():
    rng = random.Random(3)
    data = rand_conjugate(rng, abelian_l3_l4(rng, (2, 2, 2)))
    for n in (6, 7):
        rep = check_condition(data, n)
        assert rep.passed and rep.checked


def test_conjugation_preserves_validity():
    rng = random.Random(8)
    base = two_term_data(scaling_brackets(), ce_cocycles4(scaling_brackets())[0])
    assert_valid(rand_conjugate(rng, base))


def test_conjugation_preserves_violations():
    rng = random.Random(9)
    bad = two_term_data(scaling_brackets(), {(1, 2, 3, 4): Q(1)})
    moved = rand_conjugate(rng, bad)
    assert not check_condition(moved, 5).passed


def test_is_special():
    rng = random.Random(4)
    assert is_special(abelian_l3_l4(rng))[0]
    space = GradedSpace((1, 2, 1))
    l2 = build_multimap(2, 0, space, [((((1, 0), (1, 1))), (Q(1),))])
    data = LInfinityData(space, MultiMap.zero(1, -1, space), l2,
                         MultiMap.zero(3, 1, space), MultiMap.zero(4, 2, space))
    ok, key = is_special(data)
    assert not ok and key == ((1, 0), (1, 1))


def test_from_four_cocycle_assembly_and_gate():
    brackets = scaling_brackets()
    space = GradedSpace((5, 0, 1))
    raw2 = [((((0, i), (0, j))), tuple(ev.get(m, Q(0)) for m in range(5)))
            for (i, j), ev in brackets.items()]
    bracket = build_multimap(2, 0, space, raw2)
    action = MultiMap.zero(2, 0, space)

    good = ce_cocycles4(brackets)[0]
    raw4 = [((tuple((0, i) for i in k)), (v,)) for k, v in good.items()]
    data = from_four_cocycle(bracket, action, build_multimap(4, 2, space, raw4))
    assert_valid(data)

    bad = {(1, 2, 3, 4): Q(1)}
    raw4 = [((tuple((0, i) for i in k)), (v,)) for k, v in bad.items()]
    data = from_four_cocycle(bracket, action, build_multimap(4, 2, space, raw4))
    reports = check_all(data, 5)
    assert all(r.passed for r in reports[:4]) and not reports[4].passed


def test_from_four_cocycle_rejects_nonzero_v1():
    space = GradedSpace((2, 1, 1))
    with pytest.raises(ValueError):
        from_four_cocycle(MultiMap.zero(2, 0, space), MultiMap.zero(2, 0, space),
                          MultiMap.zero(4, 2, space))


def differential_samples():
    """The valid, non-closed-cochain and non-Jacobi samples, other valid
    families, and random-basis copies of them and of arbitrary brackets."""
    rng = random.Random(12)
    closed = ce_cocycles4(scaling_brackets(4), 4)[0]
    base = [two_term_data(scaling_brackets(4), closed, 4),
            two_term_data(scaling_brackets(), {(1, 2, 3, 4): Q(1)}),
            non_jacobi_data(),
            abelian_l3_l4(rng, (2, 2, 2)),
            l1_only(rng, (2, 1, 1)),
            graded_lie_data(scaling_brackets(3), 3)]
    moved = [rand_conjugate(rng, data) for data in base[:4]]
    moved += [rand_conjugate(rng, rand_brackets(rng, dims, density=1.0))
              for dims in ((2, 1, 1), (1, 2, 1), (4, 1, 1))]
    return base + moved


def test_check_condition_matches_seed_oracle():
    failing = 0
    for data in differential_samples():
        for n in range(1, 7):
            rep = check_condition(data, n)
            assert rep == seed_check_condition(data, n)
            failing += not rep.passed
    assert failing >= 8  # the comparison covers nonzero residuals too


def test_degree_pruned_tuples_have_zero_residual():
    rng = random.Random(13)
    pruned = 0
    for dims in ((2, 1, 1), (1, 2, 2)):
        data = rand_brackets(rng, dims, density=1.0)
        for n in range(1, 7):
            for key in seed_canonical_tuples(data.space, n):
                if 0 <= sum(d for d, _ in key) + n - 3 <= 2:
                    continue
                args = [GradedVector.basis_vector(data.space, d, i) for d, i in key]
                assert seed_linfty_residual(data, n, args).is_zero()
                pruned += 1
    assert pruned > 100
