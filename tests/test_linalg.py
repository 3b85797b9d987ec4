import itertools
import random
from fractions import Fraction as Q

import pytest

from shlie3.linalg import (Matrix, combine, compose, contract, dense, hstack,
                           quotient_basis, vadd, vis_zero, vscale, vstack,
                           vsub, vzero)

from helpers import block_diag, rand_invertible, rand_matrix, transpose


def test_vector_helpers():
    a, b = (Q(1), Q(2)), (Q(3), Q(-2))
    assert vadd(a, b) == (Q(4), Q(0))
    assert vsub(a, b) == (Q(-2), Q(4))
    assert vscale(Q(1, 2), a) == (Q(1, 2), Q(1))
    assert vis_zero(vzero(3)) and not vis_zero(a)


def test_compose_and_combine_match_contract():
    """compose substitutes one table into one argument of another, keeping
    the keys a predicate admits, and combine adds tables with reordered
    arguments; both agree with contracting the tables, and hold no zeros."""
    rng = random.Random(3)
    rand_table = lambda: {key: value for key in itertools.product(range(3), repeat=2)
                          if (value := tuple((o, Q(rng.randint(-2, 2), 2)) for o in range(3)
                                             if rng.random() < 0.6 and rng.random() < 0.9))}
    outer, inner = rand_table(), rand_table()
    T = compose(outer, inner, 1)  # T(a, b, c) = outer(a, inner(b, c))
    for a, b, c in itertools.product(range(3), repeat=3):
        want = contract(outer, [(a, 1)], contract(inner, [(b, 1)], [(c, 1)]))
        assert dense(3, T.get((a, b, c), ())) == dense(3, want)
    kept = compose(outer, inner, 0, keep=lambda key: key[0] != key[2])
    assert kept == {k: v for k, v in compose(outer, inner, 0).items() if k[0] != k[2]}
    S = combine((2, T), (-1, T, (2, 0, 1)))  # S(a, b, c) = 2 T(a, b, c) - T(c, a, b)
    for a, b, c in itertools.product(range(3), repeat=3):
        want = vsub(vscale(2, dense(3, T.get((a, b, c), ()))), dense(3, T.get((c, a, b), ())))
        assert dense(3, S.get((a, b, c), ())) == want
    assert all(x for table in (T, S) for pairs in table.values() for _, x in pairs)
    assert combine((1, T), (-1, T)) == {}


def test_matmul_and_shapes():
    A = Matrix([[1, 2], [3, 4]])
    B = Matrix([[0, 1], [1, 0]])
    assert (A @ B).rows == ((Q(2), Q(1)), (Q(4), Q(3)))
    assert A.apply((1, 0)) == (Q(1), Q(3))
    assert transpose(A).rows == ((Q(1), Q(3)), (Q(2), Q(4)))
    E = Matrix.zeros(2, 0)
    assert (E @ Matrix.zeros(0, 3)).shape == (2, 3)


def test_rref_rank_nullspace():
    A = Matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert A.rank() == 2
    null = A.nullspace()
    assert len(null) == 1
    for v in null:
        assert vis_zero(A.apply(v))


def test_solve_roundtrip_random():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        A = rand_matrix(rng, rng.randint(1, 4), n)
        x = tuple(Q(rng.randint(-3, 3)) for _ in range(n))
        b = A.apply(x)
        y = A.solve(b)
        assert y is not None and A.apply(y) == b


def test_solve_inconsistent():
    A = Matrix([[1, 1], [1, 1]])
    assert A.solve((0, 1)) is None


def test_solve_matrix_inverse():
    rng = random.Random(11)
    P = rand_invertible(rng, 4)
    X = P.solve_matrix(Matrix.eye(4))
    assert X is not None and P @ X == Matrix.eye(4)


def test_kron_mixed_product():
    rng = random.Random(3)
    A, B = rand_matrix(rng, 2, 3), rand_matrix(rng, 3, 2)
    C, D = rand_matrix(rng, 3, 2), rand_matrix(rng, 2, 3)
    assert A.kron(B) @ C.kron(D) == (A @ C).kron(B @ D)


def test_kron_empty_keeps_ncols():
    A = Matrix.zeros(0, 2)
    B = Matrix.eye(3)
    assert A.kron(B).shape == (0, 6)


def test_from_cols_keeps_shape_when_empty():
    assert Matrix.from_cols([], nrows=3).shape == (3, 0)
    assert Matrix.from_cols([(), ()], nrows=0).shape == (0, 2)


def test_stacks_and_block_diag():
    A, B = Matrix.eye(2), Matrix([[1, 2]])
    assert hstack([A, Matrix.zeros(2, 1)]).shape == (2, 3)
    assert vstack([A, B]).shape == (3, 2)
    D = block_diag([A, B])
    assert D.shape == (3, 4)
    assert D.rows[2] == (Q(0), Q(0), Q(1), Q(2))


def test_column_space_coords_and_quotient():
    basis = [(Q(1), Q(0)), (Q(1), Q(1))]
    c = Matrix.from_cols(basis, nrows=2).solve((Q(3), Q(2)))
    assert c == (Q(1), Q(2))
    assert Matrix.from_cols([(Q(1), Q(0))], nrows=2).solve((Q(0), Q(1))) is None
    chosen = quotient_basis([(Q(1), Q(1))], 2)
    assert len(chosen) == 1
    e = tuple(Q(1) if j == chosen[0] else Q(0) for j in range(2))
    assert Matrix.from_cols([(Q(1), Q(1)), e], nrows=2).rank() == 2
