import random
from fractions import Fraction as Q

import pytest

from shlie3 import cli, simplicial
from shlie3.chain import ChainComplexT, ChainMapT
from shlie3.linalg import Matrix, vis_zero
from shlie3.lincat import TensorCat, from_chain, tensor_product
from shlie3.simplicial import (SimplicialVS, aw, aw_after_ez_identity,
                               aw_ez_homology_check, compose_tensor_identity,
                               ez, ez_aw, moore, moore_bases,
                               moore_of_nerve_check, nerve, nerve_map,
                               obstruction_demo, tensor_svs)
from shlie3.lincat import NFunctor, lift_functor
from shlie3.specfile import render_chain

from helpers import constant_svs, rand_chain2, rand_matrix, seed_compose_tensor_identity


def two_term_cat(rng, dims=None):
    return from_chain(rand_chain2(rng, dims))


def test_constant_point():
    S = constant_svs(3)
    assert S.dims == (1, 1, 1, 1)
    C = moore(S)
    assert C.dims[0] == 1 and all(d == 0 for d in C.dims[1:])


def test_validation_rejects_bad_faces():
    S = constant_svs(2)
    bad_faces = tuple(
        tuple(Matrix([[2]]) if (n == 1 and i == 0) else m for i, m in enumerate(level))
        for n, level in enumerate(S.faces, start=1))
    with pytest.raises(ValueError):
        SimplicialVS(S.dims, bad_faces, S.degens)


def _with_face_entry_changed(S: SimplicialVS, n: int, i: int) -> SimplicialVS:
    """The same face/degeneracy data with one entry of d_i at level n shifted by 1."""
    rows = [list(r) for r in S.d(n, i).rows]
    rows[0][0] += 1
    faces = [list(level) for level in S.faces]
    faces[n - 1][i] = Matrix(rows, ncols=S.dim(n))
    return SimplicialVS(S.dims, tuple(map(tuple, faces)), S.degens)


def test_corrupted_nerve_and_tensor_faces_rejected():
    rng = random.Random(11)
    S = nerve(two_term_cat(rng, (2, 1)), 3)
    T = tensor_svs(S, nerve(two_term_cat(rng, (1, 1)), 3))
    for space in (S, T):
        for n, i in ((1, 0), (2, 1), (3, 2), (3, 3)):
            with pytest.raises(ValueError, match="identity fails"):
                _with_face_entry_changed(space, n, i)


def test_nerve_dims_and_identities():
    rng = random.Random(1)
    L = two_term_cat(rng, (3, 2))
    S = nerve(L, 4)
    n0, n1 = 3, 2
    assert S.dims == tuple(n0 + n * n1 for n in range(5))
    # construction already validated the simplicial identities exhaustively


def test_nerve_orientation():
    # at level 1, d_1 is the source and d_0 the target of an arrow
    rng = random.Random(2)
    L = two_term_cat(rng, (2, 2))
    S = nerve(L, 2)
    f = (Q(1), Q(0), Q(3), Q(-2))  # base (1,0), kernel part (3,-2)
    x = tuple(f[:2])
    src = S.d(1, 1).apply(f)
    tgt = S.d(1, 0).apply(f)
    assert src == x
    assert tgt == tuple(a + b for a, b in zip(x, L.t_matrix(1).apply(f[2:])))


def test_moore_of_nerve():
    rng = random.Random(3)
    for _ in range(8):
        L = two_term_cat(rng)
        assert moore_of_nerve_check(L, nerve(L, 3))
    L = two_term_cat(rng, (3, 3))
    assert moore_of_nerve_check(L, nerve(L, 3))
    with pytest.raises(ValueError, match="its nerve"):
        moore_of_nerve_check(L, nerve(two_term_cat(rng, (2, 3)), 3))


def test_moore_level1_basis_normalized():
    rng = random.Random(4)
    L = two_term_cat(rng, (2, 2))
    S = nerve(L, 3)
    for b in moore_bases(S)[1]:
        assert vis_zero(b[:2])


def test_nerve_map_commutes_with_faces():
    rng = random.Random(5)
    L = two_term_cat(rng, (2, 1))
    maps = [Matrix.eye(L.level_dim(m)).scale(1) for m in range(2)]
    F = lift_functor(L, L, maps)
    N = 3
    levels = nerve_map(F, N)
    S = nerve(L, N)
    for n in range(1, N + 1):
        for i in range(n + 1):
            assert levels[n - 1] @ S.d(n, i) == S.d(n, i) @ levels[n]


def test_tensor_svs_dims():
    S = constant_svs(2)
    rng = random.Random(6)
    T = nerve(two_term_cat(rng, (2, 1)), 2)
    ST = tensor_svs(S, T)
    assert ST.dims == tuple(a * b for a, b in zip(S.dims, T.dims))


def test_ez_aw_chain_maps_and_roundtrips():
    rng = random.Random(7)
    for dims in ((2, 1), (1, 2), (2, 2)):
        S = nerve(two_term_cat(rng, dims), 3)
        T = nerve(two_term_cat(rng, (2, 1)), 3)
        f = ez(S, T)
        g = aw(S, T)
        assert f.is_chain_map() and g.is_chain_map()
        assert aw_after_ez_identity(f, g)
        assert aw_ez_homology_check(f, g)


def test_ez_demo_reports_a_shuffle_map_that_is_not_a_chain_map(monkeypatch, tmp_path, capsys):
    """``ez`` returns its map unchecked, and the ``ez-demo`` report decides the
    chain-map property: a shuffle map bent off it (its degree-1 level
    doubled) prints a FAIL line and exits 1."""
    built = []

    def bent(source, target, maps):
        if not built:  # the first map that ez-demo builds is the shuffle map
            maps = (maps[0], maps[1] + maps[1], *maps[2:])
        built.append(ChainMapT(source, target, maps))
        return built[-1]
    monkeypatch.setattr(simplicial, "ChainMapT", bent)
    p = tmp_path / "chain.json"
    p.write_text(render_chain(rand_chain2(random.Random(11), (2, 1))))
    assert cli.main(["ez-demo", str(p), "--trunc", "2"]) == 1
    out = capsys.readouterr().out
    assert "shuffle-map-is-chain-map: FAIL" in out and "front-face-map-is-chain-map: PASS" in out
    assert len(built) == 2


def test_homology_roundtrip_checks_every_degree(monkeypatch, tmp_path):
    """``aw_ez_homology_check`` examines each degree below the truncation's
    top, 0..3 at --trunc 4."""
    degrees, real = [], simplicial.induced_on_homology
    monkeypatch.setattr(simplicial, "induced_on_homology",
                        lambda C, n, f: degrees.append(n) or real(C, n, f))
    p = tmp_path / "chain.json"
    p.write_text(render_chain(rand_chain2(random.Random(11), (1, 1))))
    assert cli.main(["ez-demo", str(p), "--trunc", "4"]) == 0
    assert degrees == [0, 1, 2, 3]


@pytest.mark.parametrize("dims", [(1, 1), (2, 1)])
def test_homology_roundtrip_holds_at_trunc_1(tmp_path, capsys, dims):
    """At the top degree T of the truncation, ez o aw(z) - z is a boundary
    of the dropped degree T + 1, so the top is not compared: on these
    complexes it differed from z at --trunc 1, a wrong FAIL."""
    p = tmp_path / "chain.json"
    p.write_text(render_chain(rand_chain2(random.Random(11), dims)))
    assert cli.main(["ez-demo", str(p), "--trunc", "1"]) == 0
    assert "roundtrip-identity-on-homology: PASS" in capsys.readouterr().out


def test_each_moore_basis_is_computed_once(monkeypatch, tmp_path, capsys):
    calls = []
    original = simplicial.moore_bases
    monkeypatch.setattr(simplicial, "moore_bases", lambda S: calls.append(S) or original(S))
    C = rand_chain2(random.Random(11), (2, 1))
    S = nerve(from_chain(C), 2)
    f, g = ez(S, S), aw(S, S)
    assert len(calls) == 3  # S once (a space keeps its normalization), tensor_svs(S, S) per map
    T = nerve(from_chain(C), 2)  # equal to S, but not S: normalized separately
    assert ez(S, T).maps == f.maps and aw(S, T).maps == g.maps
    calls.clear()
    assert ez_aw(S, S) == (f, g) and len(calls) == 1  # the two maps share one tensor_svs(S, S)
    calls.clear()
    p = tmp_path / "chain.json"
    p.write_text(render_chain(C))
    assert cli.main(["nerve", str(p), "--trunc", "2"]) == 0
    assert len(calls) == 1  # the reported Moore dims and the kernel-complex check share it
    calls.clear()
    assert cli.main(["ez-demo", str(p), "--trunc", "2"]) == 0
    assert len(calls) == 2  # S and tensor_svs(S, S), for both maps


def test_each_moore_projection_is_computed_once(monkeypatch):
    calls = []
    original = simplicial._moore_projection
    monkeypatch.setattr(simplicial, "_moore_projection",
                        lambda S, bases, n: calls.append(n) or original(S, bases, n))
    S = nerve(from_chain(rand_chain2(random.Random(11), (2, 1))), 2)
    aw(S, S)
    assert sorted(calls) == [0, 1]  # the nonzero degrees of moore(S), once for both factors


def test_ez_aw_with_point():
    rng = random.Random(8)
    S = nerve(two_term_cat(rng, (2, 2)), 3)
    P = constant_svs(3)
    f, g = ez(S, P), aw(S, P)
    assert aw_after_ez_identity(f, g)
    assert aw_ez_homology_check(f, g)


def test_compose_tensor_identity():
    rng = random.Random(9)
    for dims in ((2, 1), (2, 2), (1, 1)):
        L = two_term_cat(rng, dims)
        tc = tensor_product(L, L)
        assert compose_tensor_identity(L, tc)
        assert seed_compose_tensor_identity(L, tc)


def test_compose_tensor_identity_composes_once(monkeypatch):
    """The check stacks every pair of basis pairs into columns: one raw
    composition, which takes each side to component coordinates once."""
    L = two_term_cat(random.Random(12), (3, 3))
    tc = tensor_product(L, L)
    calls = dict.fromkeys(("compose_raw", "coords"), 0)
    for name in calls:
        def counted(self, *args, real=getattr(TensorCat, name), name=name):
            calls[name] += 1
            return real(self, *args)
        monkeypatch.setattr(TensorCat, name, counted)
    assert compose_tensor_identity(L, tc)
    assert calls == {"compose_raw": 1, "coords": 2}


def test_obstruction_present_with_kernel_arrows():
    rng = random.Random(10)
    for dims in ((1, 1), (2, 1), (2, 2)):
        L = two_term_cat(rng, dims)
        rep = obstruction_demo(L)
        assert rep.compose_tensor_identity_holds
        assert rep.obstructed
        assert rep.witness_index is not None
        assert not vis_zero(rep.witness_difference)
        assert rep.kernel_dim > 0


def test_obstruction_demo_builds_no_simplicial_space(monkeypatch):
    """The demo reads its two faces directly; it validates no whole nerve."""
    built = []
    check = SimplicialVS.__post_init__
    monkeypatch.setattr(SimplicialVS, "__post_init__", lambda S: (built.append(S), check(S)))
    L = two_term_cat(random.Random(11), (2, 1))
    assert obstruction_demo(L).obstructed
    assert built == []
    nerve(L, 3)
    assert len(built) == 1


def test_no_obstruction_without_kernel_arrows():
    L = from_chain(ChainComplexT((2, 0), (Matrix.zeros(2, 0),)))
    rep = obstruction_demo(L)
    assert rep.compose_tensor_identity_holds
    assert not rep.obstructed
    assert rep.kernel_dim == 0
    assert "no obstruction" in rep.message
