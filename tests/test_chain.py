import random
from fractions import Fraction as Q

import pytest

from shlie3.chain import (ChainComplexT, ChainMapT, homology_data,
                          induced_on_homology, tensor_complex)
from shlie3.linalg import Matrix

from helpers import rand_chain3


def test_differential_ranges():
    C = ChainComplexT((2, 2), (Matrix([[1, 0], [0, 0]]),))
    assert C.top_degree == 1
    assert C.diff(1).shape == (2, 2)
    assert C.diff(2).shape == (2, 0)
    assert C.diff(5).is_zero()
    assert C.dim(0) == 2 and C.dim(7) == 0


def test_zero_differential_has_the_shape_of_its_degrees():
    """Outside 1..N the differential is the dim C_{n-1} x dim C_n zero matrix,
    so the kernel of d_0 is all of C_0, in unit vectors."""
    C = ChainComplexT((2, 1), (Matrix([[1], [0]]),))
    assert C.diff(0).shape == (0, C.dim(0))
    assert C.diff(-1).shape == (0, 0) and C.diff(3).shape == (0, 0)
    assert homology_data(C, 0)[1] == Matrix.eye(2).cols()


def test_square_zero_enforced():
    d1 = Matrix([[1], [0]])
    d2 = Matrix([[1]])
    with pytest.raises(ValueError):
        ChainComplexT((2, 1, 1), (d1, d2))


def test_chain_map_identity():
    rng = random.Random(2)
    C = rand_chain3(rng)
    f = ChainMapT(C, C, tuple(Matrix.eye(C.dim(n)) for n in range(C.top_degree + 1)))
    assert f.is_chain_map().passed


def test_chain_map_detects_noncommuting():
    C = ChainComplexT((1, 1), (Matrix([[1]]),))
    D = ChainComplexT((1, 1), (Matrix([[0]]),))
    f = ChainMapT(C, D, (Matrix([[1]]), Matrix([[1]])))
    rep = f.is_chain_map()
    assert not rep.passed
    assert [(x.identity, x.witness, x.residual) for x in rep.failures] == [("chain-map", (1, 0), (-1,))]


def test_tensor_complex_dims_and_square():
    rng = random.Random(4)
    C, D = rand_chain3(rng), rand_chain3(rng)
    T, layout = tensor_complex(C, D)
    for n in range(T.top_degree + 1):
        expect = sum(C.dim(p) * D.dim(q) for p in range(n + 1) for q in [n - p])
        assert T.dim(n) == expect
        blocks = sum(C.dim(p) * D.dim(q) for p, q in layout[n])
        assert blocks == expect
    for n in range(1, T.top_degree + 1):
        assert (T.diff(n) @ T.diff(n + 1)).is_zero()


def test_tensor_truncation():
    rng = random.Random(9)
    C = rand_chain3(rng, (2, 2, 1))
    T, layout = tensor_complex(C, C, trunc=2)
    assert T.top_degree == 2
    assert len(layout) == 3


def test_homology_hand_example():
    # 0 -> Q -> Q^2 with d1 = (1, 0)^T: H0 = Q, H1 = 0
    C = ChainComplexT((2, 1), (Matrix([[1], [0]]),))
    for n, expect in ((0, 1), (1, 0)):
        basis, _, _ = homology_data(C, n)
        assert len(basis) == expect


def test_homology_of_zero_differential():
    C = ChainComplexT((2, 3, 1), (Matrix.zeros(2, 3), Matrix.zeros(3, 1)))
    for n, expect in ((0, 2), (1, 3), (2, 1)):
        basis, _, _ = homology_data(C, n)
        assert len(basis) == expect


def test_induced_on_homology_identity():
    rng = random.Random(6)
    C = rand_chain3(rng, (3, 2, 2))
    for n in range(3):
        A, B = induced_on_homology(C, n, Matrix.eye(C.dim(n)))
        assert A == B  # identity map induces the identity matrix pair
