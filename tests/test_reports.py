"""Failure reports: golden CLI output for one failing sample per check kind,
and every failure's witness replayed to its exact residual.

To rewrite the golden files after an intended change of the report format,
run ``PYTHONPATH=src python tests/test_reports.py`` from the repository root.
"""

import contextlib
import io
import itertools
import random
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from shlie3 import lie3
from shlie3.cli import main
from shlie3.graded import GradedSpace, GradedVector, MultiMap, build_multimap
from shlie3.lie3 import (Lie3Data, J_cell, bracket_cells, check_bifunctor,
                         check_coherence, check_identiator, check_jacobiator,
                         from_linfinity, mu_cell)
from shlie3.lincat import Cell, check_axioms, from_chain
from shlie3.linalg import Matrix
from shlie3.linfinity import LInfinityData, check_all
from shlie3.specfile import render_lie3, render_linfinity

from helpers import l1_only, non_jacobi_data, rand_chain3, seed_linfty_residual
from test_lie3 import _l1_only_cat, _with_random_constants, scaling_cat

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


def corrupted_axioms():
    """check_axioms with a composition that adds 1 to every V2 entry of a
    level-2 composite along 0-cells."""
    L = from_chain(rand_chain3(random.Random(5), (2, 2, 1)))

    def broken(a, b, p):
        c = L.compose(a, b, p)
        if c.level == 2 and p == 0:
            return Cell(2, c.components[:2] + (tuple(x + 1 for x in c.components[2]),))
        return c
    return L, broken


GOLDEN_CASES = {
    "linfinity-order3.json": (non_jacobi_data, ["check", "--format", "json"]),
    "bifunctor-chain-rule.json": (bracket_perturbed, ["check", "--format", "json"]),
    "bifunctor-chain-rule.txt": (bracket_perturbed, ["check", "--format", "text"]),
    "jacobiator.json": (J_perturbed, ["check", "--format", "json"]),
    "identiator.json": (mu_perturbed, ["check", "--format", "json"]),
    "coherence-check.json": (mu_not_closed, ["check", "--format", "json"]),
    "coherence-command.json": (mu_not_closed, ["coherence", "--format", "json"]),
}


def run_cli(make, args, path: Path) -> tuple[int, str]:
    data = make()
    path.write_text(render_linfinity(data) if isinstance(data, LInfinityData) else render_lie3(data))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([args[0], str(path)] + args[1:])
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_failing_report_matches_golden(name, tmp_path):
    code, out = run_cli(*GOLDEN_CASES[name], tmp_path / "spec.json")
    assert code == 1
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


# -- witness replay -------------------------------------------------------

def flat(x) -> tuple:
    return tuple(itertools.chain(*x.components)) if isinstance(x, Cell) else tuple(x)


def diff(lhs, rhs) -> tuple:
    return tuple(a - b for a, b in zip(flat(lhs), flat(rhs), strict=True))


def mismatch(L, p, pairs) -> tuple:
    """t^k a - s^k b for the first pair (a, b) of m-cells, k = m - p, that
    is not p-composable."""
    for a, b in pairs:
        k = a.level - p
        if L.target_iter(a, k) != L.source_iter(b, k):
            return diff(L.target_iter(a, k), L.source_iter(b, k))
    raise AssertionError("every composite is defined")


def right_factor(L, a, code, p):
    """The p-composable right factor of a whose free part is coded_cell(code)."""
    k = a.level - p
    return L.identity_iter(L.target_iter(a, k), k) + L.coded_cell(code)


def homotopy_data(D) -> LInfinityData:
    return LInfinityData(D.space, D.cat.t_data, D.bracket_constants, D.J, D.mu.scale(-1))


def objects(D, w):
    e = Matrix.eye(D.cat.dim(0)).cols()
    return [e[i] for _, i in w]


def square(D, F, G, theta, w):
    """The two composable pairs of the naturality square named by w."""
    L = D.cat
    slot, objs, code = w
    alpha, xs = L.coded_cell(code), objects(D, objs)
    args = [L.cell_from_v0(x, 2) for x in xs]
    args.insert(slot, alpha)
    ends = [xs[:slot] + [end.components[0]] + xs[slot:]
            for end in (L.target(L.target(alpha)), L.source(L.source(alpha)))]
    return (F(*args), theta(ends[0])), (theta(ends[1]), G(*args))


def replay(D, check: str, identity: str, w) -> tuple:
    """The residual of one comparison, rebuilt from its witness alone."""
    L = D.cat
    br = lambda a, b: bracket_cells(D, a, b)
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
                    lambda: diff(br(a, b), br(L.identity(L.target(a)), b))}[identity]()
    if check in ("jacobiator", "identiator") and identity != "target":
        if check == "jacobiator":
            F = lambda a, b, c: br(br(a, b), c)
            G = lambda a, b, c: br(br(a, c), b) + br(a, br(b, c))
            theta = lambda xs: L.identity(J_cell(D, *xs))
        else:
            F = lambda a, b, c, d: br(br(br(a, b), c), d)
            G = lambda a, b, c, d: (br(br(a, c), br(b, d)) + br(a, br(br(b, d), c))
                                    + br(br(br(a, d), c), b) + br(br(a, d), br(b, c))
                                    + br(br(a, br(c, d)), b) + br(a, br(b, br(c, d))))
            theta = lambda xs: mu_cell(D, *xs)
        pairs = square(D, F, G, theta, w)
        if identity == "composable":
            return mismatch(L, 0, pairs)
        res = L.compose(*pairs[0], 0) - L.compose(*pairs[1], 0)
        return res.components[1] if identity == "naturality-v1" else flat(res)
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


def replay_axiom(L, comp, identity: str, w) -> tuple:
    if identity == "interchange":
        p, q, ca, cb, cc, cd = w
        a = L.coded_cell(ca)
        b, c = right_factor(L, a, cb, p), right_factor(L, a, cc, q)
        d = right_factor(L, c, cd, p)
        return diff(comp(comp(a, b, p), comp(c, d, p), q), comp(comp(a, c, q), comp(b, d, q), p))
    if identity == "identity-of-composite":
        p, ca, cb = w
        a = L.coded_cell(ca)
        b = right_factor(L, a, cb, p)
        return diff(L.identity(comp(a, b, p)), comp(L.identity(a), L.identity(b), p))
    p, ca = w
    a = L.coded_cell(ca)
    k = a.level - p
    if identity == "unit 1a=a":
        return diff(comp(L.identity_iter(L.source_iter(a, k), k), a, p), a)
    if identity == "unit a1=a":
        return diff(comp(a, L.identity_iter(L.target_iter(a, k), k), p), a)
    raise AssertionError(f"no replay for axioms: {identity}")


def test_every_witness_replays_to_its_residual():
    seen = set()
    for make in (bracket_perturbed, J_perturbed, mu_perturbed, mu_not_closed, non_lie):
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
    L, broken = corrupted_axioms()
    rep = check_axioms(L, compose=broken)
    for f in rep.failures:
        assert any(f.residual) and replay_axiom(L, broken, f.identity, f.witness) == f.residual, f
        seen.add(("axioms", f.identity))
    assert seen == {  # every replay branch above is exercised
        ("bifunctor", "target"), ("bifunctor", "antisymmetry"), ("bifunctor", "composition"),
        ("bifunctor", "composable"), ("bifunctor", "kernel-bracket [f,g]=[1_tf,g]"),
        ("bifunctor", "chain-rule"), ("jacobiator", "target"), ("jacobiator", "composable"),
        ("jacobiator", "naturality-v1"), ("identiator", "target"), ("identiator", "composable"),
        ("identiator", "modification-v1"), ("identiator", "modification-v2"),
        ("coherence", "coherence"), ("order-3", "degree tag"), ("axioms", "interchange"),
        ("axioms", "identity-of-composite"), ("axioms", "unit 1a=a"), ("axioms", "unit a1=a")}


# -- order-5 agreement ----------------------------------------------------

def test_order5_disagreement_is_a_failure(monkeypatch, tmp_path):
    """A quintuple whose V2 residual differs from the order-5 residual fails
    the coherence check, even where the coherence law itself holds."""
    D = scaling_cat()
    shift = GradedVector.from_component(D.space, 2, (Q(1),))
    real = lie3.linfty_residual
    monkeypatch.setattr(lie3, "linfty_residual", lambda *a: real(*a) + shift)
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
    for name, case in sorted(GOLDEN_CASES.items()):
        (GOLDEN / name).write_text(run_cli(*case, scratch)[1], encoding="utf-8")
    scratch.unlink()
    sys.exit(0)
