import itertools
import math
import random
from fractions import Fraction as Q

import pytest

from shlie3.graded import (ContradictionError, GradedSpace, GradedVector,
                           MultiMap, Permutation, build_multimap, koszul_chi)
from shlie3.linalg import contract

from helpers import enumerate_shuffles


def all_perms(n):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def test_permutation_basics():
    s = Permutation((2, 3, 1))
    assert s.apply("abc") == ("b", "c", "a")
    assert s.inverse().compose(s).images == (1, 2, 3)
    assert s.compose(s.inverse()).images == (1, 2, 3)
    assert Permutation((2, 1, 3)).sign() == -1


def test_compose_convention():
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randint(1, 5)
        s = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        t = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        x = tuple(range(n))
        assert s.compose(t).apply(x) == s.apply(t.apply(x))


def test_chi_transpositions():
    swap = Permutation((2, 1))
    assert koszul_chi(swap, [0, 0]) == -1
    assert koszul_chi(swap, [1, 1]) == 1  # two odd elements crossing
    assert koszul_chi(swap, [1, 2]) == -1
    assert koszul_chi(swap, [2, 2]) == -1


def test_chi_multiplicativity_exhaustive():
    """chi(s.t, deg) = chi(s, t-permuted deg) * chi(t, deg), all of S_n, n <= 5."""
    degree_vectors = {n: list(itertools.product((0, 1, 2), repeat=n)) for n in (1, 2, 3)}
    degree_vectors[4] = list(itertools.product((0, 1), repeat=4))
    degree_vectors[5] = [(0, 1, 2, 1, 0), (1, 1, 1, 1, 1), (0, 0, 1, 2, 2)]
    for n in range(1, 6):
        perms = all_perms(n)
        for s in perms:
            for t in perms:
                for deg in degree_vectors[n]:
                    lhs = koszul_chi(s.compose(t), deg)
                    rhs = koszul_chi(s, t.apply(deg)) * koszul_chi(t, deg)
                    assert lhs == rhs


def test_shuffle_counts():
    for total in range(1, 8):
        for i in range(total + 1):
            j = total - i
            sh = enumerate_shuffles(i, j)
            assert len(sh) == math.comb(total, i)
            for s in sh:
                first, rest = s.images[:i], s.images[i:]
                assert list(first) == sorted(first)
                assert list(rest) == sorted(rest)
    assert len({s.images for s in enumerate_shuffles(3, 4)}) == math.comb(7, 3)


def test_graded_vector_ops():
    V = GradedSpace((2, 1, 1))
    e = GradedVector.basis_vector(V, 0, 1)
    assert e.degree() == 0 and e.component(0) == (Q(0), Q(1))
    z = GradedVector.zero(V)
    assert (e + z - e).is_zero()
    assert e.scale(Q(1, 3)).component(0) == (Q(0), Q(1, 3))
    mixed = e + GradedVector.basis_vector(V, 2, 0)
    assert mixed.degree() is None
    assert GradedVector.from_support(V, mixed.support()) == mixed
    assert GradedVector.from_support(V, [((0, 1), 1), ((2, 0), 2), ((0, 1), -1)]) == \
        GradedVector.basis_vector(V, 2, 0).scale(2)


def test_table_values_are_arguments():
    """A table value's outputs are (degree, index) basis elements, like key
    entries: m(m(a, b), b) is read off the table by feeding m(a, b) back in."""
    V = GradedSpace((2, 1, 1))
    m = build_multimap(2, 0, V, [((((0, 0), (0, 1))), (Q(1), Q(3)))])
    assert m.table()[((0, 1), (0, 0))] == (((0, 0), -1), ((0, 1), -3))
    a, b = (GradedVector.basis_vector(V, 0, i) for i in (0, 1))
    inner = m.table()[((0, 0), (0, 1))]
    assert contract(m.table(), inner, b.support()) == m.eval([m.eval([a, b]), b]).support() == [
        ((0, 0), 1), ((0, 1), 3)]


def test_multimap_antisymmetry_sign():
    V = GradedSpace((2, 1, 1))
    m = build_multimap(2, 0, V, [((((0, 0), (0, 1))), (Q(1), Q(0)))])
    a = GradedVector.basis_vector(V, 0, 0)
    b = GradedVector.basis_vector(V, 0, 1)
    assert m.eval([a, b]).component(0) == (Q(1), Q(0))
    assert m.eval([b, a]).component(0) == (Q(-1), Q(0))
    assert m.eval([a, a]).is_zero()


def test_multimap_odd_square_allowed():
    V = GradedSpace((1, 2, 1))
    # value on a repeated odd-degree element is legitimate
    m = build_multimap(2, 0, V, [((((1, 0), (1, 0))), (Q(1),))])
    f = GradedVector.basis_vector(V, 1, 0)
    assert m.eval([f, f]).component(2) == (Q(1),)


def test_multimap_even_square_contradiction():
    V = GradedSpace((2, 1, 1))
    with pytest.raises(ContradictionError):
        build_multimap(2, 0, V, [((((0, 0), (0, 0))), (Q(1), Q(0)))])


def test_multimap_refuses_out_of_range_and_wrong_arity_keys():
    """``MultiMap`` decides every rule of an entry, so a direct construction
    refuses a basis index outside the space and a key of the wrong length;
    ``build_multimap``, which only folds, hands them on to it."""
    V = GradedSpace((2, 1, 1))
    for coeffs, message in (({((0, 0), (0, 99)): (1, 0)}, r"basis element \(0, 99\) outside"),
                            ({((0, 0),): (1, 0)}, r"key \(\(0, 0\),\) has wrong arity")):
        with pytest.raises(ValueError, match=message):
            MultiMap(2, 0, V, coeffs)
        with pytest.raises(ValueError, match=message):
            build_multimap(2, 0, V, coeffs.items())


def test_build_multimap_folds_reordered_entries():
    V = GradedSpace((3, 1, 1))
    raw = [((((0, 1), (0, 0))), (Q(0), Q(0), Q(-2)))]
    m = build_multimap(2, 0, V, raw)
    assert m.eval_basis(((0, 0), (0, 1))).component(0) == (Q(0), Q(0), Q(2))
    with pytest.raises(ContradictionError):
        build_multimap(2, 0, V, raw + [((((0, 0), (0, 1))), (Q(0), Q(0), Q(-2)))])


def test_multimap_eval_multilinear():
    rng = random.Random(5)
    V = GradedSpace((2, 2, 1))
    raw = []
    for key in itertools.combinations(V.basis(), 2):
        od = key[0][0] + key[1][0]
        if od <= 2:
            raw.append((key, tuple(Q(rng.randint(-2, 2)) for _ in range(V.dims[od]))))
    m = build_multimap(2, 0, V, raw)
    a = GradedVector.from_component(V, 0, (Q(1), Q(2)))
    b = GradedVector.from_component(V, 0, (Q(0), Q(1)))
    c = GradedVector.from_component(V, 1, (Q(3), Q(-1)))
    lhs = m.eval([a + b.scale(2), c])
    rhs = m.eval([a, c]) + m.eval([b, c]).scale(2)
    assert lhs.coords == rhs.coords


def test_multimap_matrix_matches_eval():
    V = GradedSpace((2, 1, 1))
    m = build_multimap(1, -1, V, [((((1, 0),)), (Q(1), Q(-1))),
                                  ((((2, 0),)), (Q(4),))])
    M1 = m.as_matrix(1)
    assert M1.apply((Q(1),)) == (Q(1), Q(-1))
    assert m.as_matrix(2).apply((Q(1),)) == (Q(4),)


def test_multimap_algebra():
    V = GradedSpace((2, 1, 1))
    m = build_multimap(2, 0, V, [((((0, 0), (0, 1))), (Q(1), Q(2)))])
    z = (m + (-m))
    assert z.is_zero()
    assert m.scale(3).eval_basis(((0, 0), (0, 1))).component(0) == (Q(3), Q(6))
