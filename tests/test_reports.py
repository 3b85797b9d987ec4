"""Failure reports: golden CLI output for one failing sample per check kind,
and for one hand-made break of each chain and simplicial check, and every
failure's witness replayed to its exact residual; and the golden output of
the simplicial commands on one fixed two-term complex, and of ``report`` on
a chain file and on a simplicial file.

To rewrite the golden files after an intended change of the output format,
run ``PYTHONPATH=src python tests/test_reports.py`` from the repository root.
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction as Q
from pathlib import Path
from unittest import mock

import pytest

from shlie3 import lie3, lincat, simplicial
from shlie3.chain import ChainComplexT, ChainMapT, homology_data
from shlie3.cli import main
from shlie3.graded import GradedSpace, GradedVector, MultiMap, build_multimap
from shlie3.lie3 import (Lie3Data, check_bifunctor, check_coherence, check_identiator,
                         check_jacobiator, from_linfinity)
from shlie3.linalg import Matrix, vstack
from shlie3.lincat import Cell, from_chain, tensor_product
from shlie3.linfinity import LInfinityData, check_all
from shlie3.simplicial import (aw_after_ez_identity, aw_ez_homology_check, compose_tensor_identity,
                               ez_aw, moore_of_nerve_check, nerve, obstruction_demo, tensor_svs)
from shlie3.specfile import render_chain, render_lie3, render_linfinity

from helpers import (J_formula, SeedCat, SeedTensorCoords, ShiftedComposition, bracket_formula,
                     flat, l1_only, mu_formula, non_jacobi_data, seed_linfty_residual,
                     seed_nullspace, seed_pad_composable, seed_pairing_matrix,
                     seed_solve_matrix, seed_tensor_identity_residual)
from test_lie3 import (_l1_only_cat, _with_random_constants, action_not_a_representation,
                       scaling_cat, tf_acts_on_v2)
from test_properties import lie3_sample, sample_421

GOLDEN = Path(__file__).resolve().parent / "golden"


# -- failing samples, one per check kind --------------------------------

def bracket_perturbed():
    """l2(e0_1, e1_0) = e0_0 breaks the chain rule of the bifunctor check."""
    D = _l1_only_cat()
    pert = build_multimap(2, 0, D.space, [(((0, 1), (1, 0)), (Q(1),))])
    return Lie3Data(D.cat, D.bracket_constants + pert, D.J, D.mu)


def J_perturbed():
    D = _l1_only_cat()
    pert = build_multimap(3, 1, D.space, [(((0, 0), (0, 1), (0, 2)), (Q(1),))])
    return Lie3Data(D.cat, D.bracket_constants, D.J + pert, D.mu)


def mu_perturbed():
    """A mu with a nonzero boundary on (4, 2, 1): fails the Identiator check."""
    space = GradedSpace((4, 2, 1))
    l1 = build_multimap(1, -1, space, [(((1, 0),), (Q(1), Q(0), Q(0), Q(0))),
                                       (((2, 0),), (Q(0), Q(1)))])
    D = from_linfinity(LInfinityData(space, l1, MultiMap.zero(2, 0, space),
                                     MultiMap.zero(3, 1, space), MultiMap.zero(4, 2, space)))
    pert = build_multimap(4, 2, space, [(((0, 0), (0, 1), (0, 2), (0, 3)), (Q(1),))])
    return Lie3Data(D.cat, D.bracket_constants, D.J, D.mu + pert)


def mu_not_closed():
    """The scaling algebra with a mu that is not a 4-cocycle: fails coherence."""
    D = scaling_cat()
    pert = build_multimap(4, 2, D.space, [(((0, 1), (0, 2), (0, 3), (0, 4)), (Q(1),))])
    return Lie3Data(D.cat, D.bracket_constants, D.J, D.mu + pert)


def non_lie():
    """A random bracket that is not Lie, with random J and mu."""
    rng = random.Random(0)
    return _with_random_constants(rng, from_linfinity(l1_only(rng, (2, 1, 1))), bracket=True)


def non_lie_8():
    """A (2,2,1) non-Lie sample whose squares are not all composable: it
    fails the Jacobiator's naturality in V1 and the Identiator's
    modification law in V1, next to "composable" failures of both.  The
    sample's action of V0 on V2 is dropped, so that the pinned input stays
    the one drawn before the family had one."""
    D = lie3_sample("non-Lie-bracket", random.Random(8))
    l2 = [(k, v) for k, v in D.bracket_constants.entries() if k[1][0] != 2]
    return Lie3Data(D.cat, build_multimap(2, 0, D.space, l2), D.J, D.mu)


GOLDEN_CASES = {
    "linfinity-order3.json": (non_jacobi_data, ["check", "--format", "json"]),
    "bifunctor-chain-rule.json": (bracket_perturbed, ["check", "--format", "json"]),
    "bifunctor-chain-rule.txt": (bracket_perturbed, ["check", "--format", "text"]),
    "jacobiator.json": (J_perturbed, ["check", "--format", "json"]),
    "identiator.json": (mu_perturbed, ["check", "--format", "json"]),
    "non-lie-8.json": (non_lie_8, ["check", "--format", "json"]),
    "coherence-check.json": (mu_not_closed, ["check", "--format", "json"]),
    "coherence-command.json": (mu_not_closed, ["coherence", "--format", "json"]),
    "coherence-421.json": (sample_421, ["coherence", "--format", "json"]),
    "report-linfinity.json": (non_jacobi_data, ["report", "--format", "json"]),
    "report-linfinity.txt": (non_jacobi_data, ["report", "--format", "text"]),
    "report-lie3.json": (J_perturbed, ["report", "--format", "json"]),
    "report-lie3.txt": (J_perturbed, ["report", "--format", "text"]),
}


def chain_21() -> ChainComplexT:
    """A fixed complex with dims (2, 1): its arrows make the pairing obstructed."""
    return ChainComplexT((2, 1), (Matrix([[1], [-2]]),))


def chain_20() -> ChainComplexT:
    """A fixed complex with V1 = 0: the pairing is simplicial."""
    return ChainComplexT((2, 0), (Matrix.zeros(2, 0),))


def chain_11() -> ChainComplexT:
    """A fixed complex with dims (1, 1)."""
    return ChainComplexT((1, 1), (Matrix([[3]]),))


def simplicial_12() -> str:
    """The nerve of ``chain_11`` truncated at level 1, as a spec file: an
    arrow (x; f) has faces x + 3 f and x, and x degenerates to (x; 0)."""
    return json.dumps({"kind": "simplicial", "dims": [1, 2], "maps": {
        "d:1:0": [["1", "3"]], "d:1:1": [["1", "0"]], "s:0:0": [["1"], ["0"]]}})


GOLDEN_CLI_CASES = {
    "nerve.json": (chain_21, ["nerve", "--format", "json"]),
    "ez-demo.json": (chain_21, ["ez-demo", "--format", "json"]),
    "obstruction-demo.json": (chain_21, ["obstruction-demo", "--format", "json"]),
    "obstruction-demo-20.json": (chain_20, ["obstruction-demo", "--format", "json"]),
    "obstruction-demo-11.json": (chain_11, ["obstruction-demo", "--format", "json"]),
    "report-chain.json": (chain_21, ["report", "--format", "json"]),
    "report-simplicial.json": (simplicial_12, ["report", "--format", "json"]),
}


def chain_22() -> ChainComplexT:
    """dims (2, 2) with t of rank 1: H_0 and H_1 are both Q, so a map bent in
    degree 1 fails the round trip on homology as well (compared in degrees 0
    and 1 at --trunc 2)."""
    return ChainComplexT((2, 2), (Matrix([[1, 0], [0, 0]]),))


@contextlib.contextmanager
def bent(which: int):
    """ez-demo with the degree-1 level of one of its maps doubled: the
    shuffle map (which = 0) or the front-face map (1), as they are built."""
    built, real = [], simplicial.ChainMapT

    def make(source, target, maps):
        if len(built) == which:
            maps = (maps[0], maps[1] + maps[1], *maps[2:])
        built.append(real(source, target, maps))
        return built[-1]
    with mock.patch.object(simplicial, "ChainMapT", make):
        yield


@contextlib.contextmanager
def other_nerve():
    """nerve (and report) with the nerve of another category of the same dims
    (2, 1) in place of the nerve of ``chain_21``: its t is (0, 1)."""
    real, other = simplicial.nerve, from_chain(ChainComplexT((2, 1), (Matrix([[0], [1]]),)))
    with mock.patch.object(simplicial, "nerve", lambda L, N: real(other, N)):
        yield


@contextlib.contextmanager
def shifted_composition():
    """obstruction-demo on an L ⊠ L whose raw composition is shifted by a
    random linear map of the stacked left factors (``ShiftedComposition``)."""
    real = lincat.tensor_product
    with mock.patch.object(lincat, "tensor_product",
                           lambda A, B: ShiftedComposition(random.Random(7), real(A, B))):
        yield


# name: (input, command line, the break it runs under)
GOLDEN_BREAK_CASES = {
    "ez-demo-bent-shuffle.json": (chain_22, ["ez-demo", "--trunc", "2", "--format", "json"],
                                  lambda: bent(0)),
    "ez-demo-bent-front-face.json": (chain_22, ["ez-demo", "--trunc", "2", "--format", "json"],
                                     lambda: bent(1)),
    "nerve-other-t.json": (chain_21, ["nerve", "--trunc", "2", "--format", "json"], other_nerve),
    "obstruction-demo-shifted-composition.json": (chain_21, ["obstruction-demo", "--format", "json"],
                                                  shifted_composition),
}


def spec_text(data) -> str:
    """The spec file of a structure or complex; a spec file's text as it is."""
    if isinstance(data, str):
        return data
    return {LInfinityData: render_linfinity, ChainComplexT: render_chain}.get(
        type(data), render_lie3)(data)


def run_cli(make, args, path: Path, brk=contextlib.nullcontext) -> tuple[int, str]:
    path.write_text(spec_text(make()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), brk():
        code = main([args[0], str(path)] + args[1:])
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_failing_report_matches_golden(name, tmp_path):
    code, out = run_cli(*GOLDEN_CASES[name], tmp_path / "spec.json")
    assert code == 1
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(GOLDEN_BREAK_CASES))
def test_broken_chain_check_report_matches_golden(name, tmp_path):
    make, args, brk = GOLDEN_BREAK_CASES[name]
    code, out = run_cli(make, args, tmp_path / "spec.json", brk)
    assert code == 1
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(GOLDEN_CLI_CASES))
def test_simplicial_output_matches_golden(name, tmp_path):
    code, out = run_cli(*GOLDEN_CLI_CASES[name], tmp_path / "spec.json")
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


# -- witness replay -------------------------------------------------------

def diff(lhs, rhs) -> tuple:
    return tuple(a - b for a, b in zip(flat(lhs), flat(rhs), strict=True))


def mismatch(L, p, pairs) -> tuple:
    """t^k a - s^k b for the first pair (a, b) of m-cells, k = m - p, that
    is not p-composable; L is a ``SeedCat``."""
    for a, b in pairs:
        k = a.level - p
        if L.target_iter(a, k) != L.source_iter(b, k):
            return diff(L.target_iter(a, k), L.source_iter(b, k))
    raise AssertionError("every composite is defined")


def right_factor(L, a, code, p):
    """The p-composable right factor of a whose free part is coded_cell(code),
    L a ``SeedCat``."""
    k = a.level - p
    return L.identity_iter(L.target_iter(a, k), k) + L.coded_cell(code)


def homotopy_data(D) -> LInfinityData:
    return LInfinityData(D.space, D.cat.t_data, D.bracket_constants, D.J, D.mu.scale(-1))


def objects(D, w):
    e = Matrix.eye(D.cat.dim(0)).cols()
    return [e[i] for _, i in w]


def square(D, F, G, theta, w):
    """The two composable pairs of the naturality square named by w."""
    L = SeedCat(D.cat)
    slot, objs, code = w
    alpha, xs = L.coded_cell(code), objects(D, objs)
    args = [L.cell_from_v0(x, 2) for x in xs]
    args.insert(slot, alpha)
    ends = [xs[:slot] + [end.components[0]] + xs[slot:]
            for end in (L.target(L.target(alpha)), L.source(L.source(alpha)))]
    return (F(*args), theta(ends[0])), (theta(ends[1]), G(*args))


def replay(D, check: str, identity: str, w) -> tuple:
    """The residual of one comparison, rebuilt from its witness alone, by the
    component formulas (``SeedCat``)."""
    L = SeedCat(D.cat)
    br = lambda a, b: bracket_formula(D, a, b)
    if check == "bifunctor" and identity == "chain-rule":
        args = [GradedVector.basis_vector(D.space, d, i) for d, i in w]
        return seed_linfty_residual(homotopy_data(D), 2, args).component(w[0][0] + w[1][0] - 1)
    if check == "bifunctor" and identity in ("composition", "composable"):
        p, cv, tv, cw, tw = w
        v, u = L.coded_cell(cv), L.coded_cell(cw)
        vp, up = right_factor(L, v, tv, p), right_factor(L, u, tw, p)
        if identity == "composable":
            return mismatch(L, p, [(v, vp), (u, up), (br(v, u), br(vp, up))])
        return diff(br(L.compose(v, vp, p), L.compose(u, up, p)),
                    L.compose(br(v, u), br(vp, up), p))
    if check == "bifunctor":
        a, b = (L.coded_cell(c) for c in w)
        return {"target": lambda: diff(L.target(br(a, b)), br(L.target(a), L.target(b))),
                "antisymmetry": lambda: diff(br(a, b), br(b, a).scale(-1)),
                "kernel-bracket [f,g]=[1_tf,g]":
                    lambda: diff(br(a, b), br(L.identity(L.target(a)), b)),
                "kernel-bracket [1^2_tf,b]=0":
                    lambda: flat(br(L.identity_iter(L.target(a), 2), b))}[identity]()
    if check in ("jacobiator", "identiator") and identity != "target":
        if check == "jacobiator":
            F = lambda a, b, c: br(br(a, b), c)
            G = lambda a, b, c: br(br(a, c), b) + br(a, br(b, c))
            theta = lambda xs: L.identity(J_formula(D, *xs))
        else:
            F = lambda a, b, c, d: br(br(br(a, b), c), d)
            G = lambda a, b, c, d: (br(br(a, c), br(b, d)) + br(a, br(br(b, d), c))
                                    + br(br(br(a, d), c), b) + br(br(a, d), br(b, c))
                                    + br(br(a, br(c, d)), b) + br(a, br(b, br(c, d))))
            theta = lambda xs: mu_formula(D, *xs)
        pairs = square(D, F, G, theta, w)
        if identity == "composable":
            return mismatch(L, 0, pairs)
        res = L.compose(*pairs[0], 0) - L.compose(*pairs[1], 0)
        return {"naturality-v1": res.components[1],
                "naturality-v2": res.components[2]}.get(identity, flat(res))
    # the remaining residuals are blocks of order-n left-hand sides on the
    # same basis tuple; mu = -l4 flips the sign of the order-4 block
    args = [GradedVector.basis_vector(D.space, 0, i) for _, i in w]
    order = {"jacobiator": 3, "identiator": 4, "coherence": 5}[check]
    res = seed_linfty_residual(homotopy_data(D), order, args)
    if check == "jacobiator":  # t J = [[x,z],y] + [x,[y,z]] in V0
        return res.component(0)
    if check == "identiator":  # t mu = eps, a 1-cell with V0 part equal on both sides
        return (Q(0),) * L.dim(0) + tuple(-c for c in res.component(1))
    return (Q(0),) * L.level_dim(1) + res.component(2)  # coherence


# -- chain and simplicial witness replay ----------------------------------

def mv(M: Matrix, v) -> tuple:
    """M v, row by row."""
    return tuple(sum((a * b for a, b in zip(row, v, strict=True)), 0) for row in M.rows)


def unit(n: int, j: int) -> tuple:
    return tuple(int(i == j) for i in range(n))


def bent_shuffle_map(S):
    """(the shuffle map of S (x) S with its degree-1 level doubled, the front-face map)."""
    f, g = ez_aw(S, S)
    return ChainMapT(f.source, f.target, (f.maps[0], f.maps[1] + f.maps[1], *f.maps[2:])), g


def chain_map_replay(f):
    def replay_one(w):  # d f(e_j) - f(d e_j) for e_j the j-th basis vector of degree n
        n, j = w
        return diff(mv(f.target.diff(n), f.level(n).col(j)), mv(f.level(n - 1), f.source.diff(n).col(j)))
    return replay_one


def roundtrip_replays(f, g):
    """Replays of the round trip aw o ez on the Moore tensor, and of ez o aw on
    the homology of f.target, in the basis of H_n that ``homology_data`` picks."""
    def on_tensor(w):
        n, j = w
        return diff(mv(g.level(n), f.level(n).col(j)), unit(f.level(n).ncols, j))

    def on_homology(w):
        (n, j), C = w, f.target
        reps, _, im = homology_data(C, n)
        image = mv(f.level(n), mv(g.level(n), reps[j]))
        X = seed_solve_matrix(Matrix.from_cols(reps + im, nrows=C.dim(n)), Matrix.from_cols([image]))
        return diff([row[0] for row in X[:len(reps)]], unit(len(reps), j))
    return on_tensor, on_homology


def moore_replay(L, S):
    """The residuals of ``moore_of_nerve_check(L, S)``: the Moore basis of a
    level is the seed's nullspace basis of its faces d_1..d_n."""
    n0 = L.dim(0)

    def replay_one(identity, w):
        n, i = w
        b = seed_nullspace(vstack([S.d(n, k) for k in range(1, n + 1)]))[i]
        if identity == "normalized-above-1":
            return b
        if identity == "arrow-out-of-0":
            return b[:n0]
        target = SeedCat(L).target(Cell(1, (b[:n0], b[n0:])))  # boundary-is-target
        return diff(mv(S.d(1, 0), b), flat(target))
    return replay_one


def compose_tensor_replay(L, tc):
    C = SeedCat(L)

    def pair(cv, ct):
        v = C.coded_cell(cv)
        return v, seed_pad_composable(L, v, C.coded_cell(ct).components[1:], 0)
    return lambda w: seed_tensor_identity_residual(L, tc, *pair(*w[:2]), *pair(*w[2:]))


def inner_face_replay(L):
    """The inner-face square on the simplex pair (a, b), with the seed's
    pair-by-pair pairings and both nerves built."""
    tc = tensor_product(L, L)
    coords = SeedTensorCoords(L, L)
    S, NT = nerve(L, 3), nerve(tc.cat, 3)
    M2, M3 = (seed_pairing_matrix(L, S, coords, tc.cat, n) for n in (2, 3))

    def replay_one(w):
        a, b = w
        da, db = S.d(3, 2).col(a), S.d(3, 2).col(b)
        return diff(mv(M2, [x * y for x in da for y in db]), mv(NT.d(3, 2), M3.col(a * S.dim(3) + b)))
    return replay_one


def chain_breaks() -> list:
    """(report, replay of (identity, witness)) for hand-made breaks of every
    chain and simplicial check, and for the pairing check, which fails on
    every complex with V1 != 0."""
    S = nerve(from_chain(chain_22()), 2)
    f, g = bent_shuffle_map(S)
    on_tensor, on_homology = roundtrip_replays(f, g)
    L = from_chain(chain_21())
    other = nerve(from_chain(ChainComplexT((2, 1), (Matrix([[0], [1]]),))), 2)
    # not a nerve: its Moore complex has a level 2, and its arrows leave 0
    product = tensor_svs(nerve(L, 2), nerve(from_chain(chain_11()), 2))
    wide = from_chain(ChainComplexT((2, 4), (Matrix([[1, 0, 2, 0], [0, 1, 0, 0]]),)))
    tc = ShiftedComposition(random.Random(7), tensor_product(L, L))
    only_witness = lambda replay_one: lambda identity, w: replay_one(w)
    return [(f.is_chain_map(), only_witness(chain_map_replay(f))),
            (aw_after_ez_identity(f, g), only_witness(on_tensor)),
            (aw_ez_homology_check(f, g), only_witness(on_homology)),
            (moore_of_nerve_check(L, other), moore_replay(L, other)),
            (moore_of_nerve_check(wide, product), moore_replay(wide, product)),
            (compose_tensor_identity(L, tc), only_witness(compose_tensor_replay(L, tc))),
            (obstruction_demo(from_chain(chain_11()))[1],
             only_witness(inner_face_replay(from_chain(chain_11()))))]


def test_every_witness_replays_to_its_residual():
    seen = set()
    for rep, replay_one in chain_breaks():
        for f in rep.failures:
            assert any(f.residual), f
            assert replay_one(f.identity, f.witness) == f.residual, f
            seen.add((rep.name, f.identity))
    for make in (bracket_perturbed, J_perturbed, mu_perturbed, mu_not_closed, non_lie,
                 action_not_a_representation, tf_acts_on_v2):
        D = make()
        for rep in (check_bifunctor(D), check_jacobiator(D), check_identiator(D),
                    check_coherence(D)):
            for f in rep.failures:
                assert any(f.residual), f
                assert replay(D, rep.name, f.identity, f.witness) == f.residual, f
                seen.add((rep.name, f.identity))
    data = non_jacobi_data()
    for n, rep in enumerate(check_all(data), 1):
        for f in rep.failures:
            args = [GradedVector.basis_vector(data.space, d, i) for d, i in f.witness]
            res = seed_linfty_residual(data, n, args)
            assert any(f.residual) and res.component(sum(d for d, _ in f.witness) + n - 3) == f.residual
            seen.add((rep.name, "degree tag"))
    assert seen == {  # every tag of src/ but "order5-agreement" (see the test below)
        ("bifunctor", "target"), ("bifunctor", "antisymmetry"), ("bifunctor", "composition"),
        ("bifunctor", "composable"), ("bifunctor", "kernel-bracket [f,g]=[1_tf,g]"),
        ("bifunctor", "kernel-bracket [1^2_tf,b]=0"), ("bifunctor", "chain-rule"),
        ("jacobiator", "target"), ("jacobiator", "composable"), ("jacobiator", "naturality-v1"),
        ("jacobiator", "naturality-v2"), ("identiator", "target"), ("identiator", "composable"),
        ("identiator", "modification-v1"), ("identiator", "modification-v2"),
        ("coherence", "coherence"), ("order-3", "degree tag"),
        ("chain-map", "chain-map"), ("roundtrip-identity-on-tensor", "aw-after-ez"),
        ("roundtrip-identity-on-homology", "ez-after-aw"),
        ("normalization-recovers-kernel-complex", "normalized-above-1"),
        ("normalization-recovers-kernel-complex", "arrow-out-of-0"),
        ("normalization-recovers-kernel-complex", "boundary-is-target"),
        ("compose-tensor-identity", "compose-tensor"), ("pairing-commutes-with-inner-face", "inner-face")}


# -- order-5 agreement ----------------------------------------------------

def test_order5_disagreement_is_a_failure(monkeypatch, tmp_path):
    """A quintuple whose V2 residual differs from the order-5 residual fails
    the coherence check, even where the coherence law itself holds."""
    D = scaling_cat()
    real = lie3.accumulate_residual

    def shifted(data, key, terms, coeff, out):  # adds 1 to the first V2 coordinate
        r = real(data, key, terms, coeff, out)
        out[0] = out.get(0, 0) + 1
        return r
    monkeypatch.setattr(lie3, "accumulate_residual", shifted)
    tup = (0, 1, 2, 3, 4)
    rep = check_coherence(D, tuples=[tup])
    assert not rep.passed
    assert [(f.identity, f.residual) for f in rep.failures] == [("order5-agreement", (Q(-1),))]
    code, out = run_cli(scaling_cat, ["coherence", "--format", "json"], tmp_path / "spec.json")
    assert code == 1
    assert '"order5_agreement": false' in out


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    scratch = GOLDEN / "spec.tmp.json"
    for name, case in sorted({**GOLDEN_CASES, **GOLDEN_CLI_CASES, **GOLDEN_BREAK_CASES}.items()):
        make, args, *brk = case
        (GOLDEN / name).write_text(run_cli(make, args, scratch, *brk)[1], encoding="utf-8")
    scratch.unlink()
    sys.exit(0)
