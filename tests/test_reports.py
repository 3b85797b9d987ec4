"""Failure reports: golden CLI output for one failing sample per check kind,
and every failure's witness replayed to its exact residual; and the golden
output of the simplicial commands on one fixed two-term complex, and of
``report`` on a chain file and on a simplicial file.

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

import pytest

from shlie3 import lie3
from shlie3.chain import ChainComplexT
from shlie3.cli import main
from shlie3.graded import GradedSpace, GradedVector, MultiMap, build_multimap
from shlie3.lie3 import (Lie3Data, bracket_cells, check_bifunctor,
                         check_coherence, check_identiator, check_jacobiator,
                         from_linfinity, mu_cell)
from shlie3.linalg import Matrix
from shlie3.linfinity import LInfinityData, check_all
from shlie3.specfile import render_chain, render_lie3, render_linfinity

from helpers import J_cell, SeedCat, flat, l1_only, non_jacobi_data, seed_linfty_residual
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


def spec_text(data) -> str:
    """The spec file of a structure or complex; a spec file's text as it is."""
    if isinstance(data, str):
        return data
    return {LInfinityData: render_linfinity, ChainComplexT: render_chain}.get(
        type(data), render_lie3)(data)


def run_cli(make, args, path: Path) -> tuple[int, str]:
    path.write_text(spec_text(make()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([args[0], str(path)] + args[1:])
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_failing_report_matches_golden(name, tmp_path):
    code, out = run_cli(*GOLDEN_CASES[name], tmp_path / "spec.json")
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
                    lambda: diff(br(a, b), br(L.identity(L.target(a)), b)),
                "kernel-bracket [1^2_tf,b]=0":
                    lambda: flat(br(L.identity_iter(L.target(a), 2), b))}[identity]()
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


def test_every_witness_replays_to_its_residual():
    seen = set()
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
        ("coherence", "coherence"), ("order-3", "degree tag")}


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
    for name, case in sorted({**GOLDEN_CASES, **GOLDEN_CLI_CASES}.items()):
        (GOLDEN / name).write_text(run_cli(*case, scratch)[1], encoding="utf-8")
    scratch.unlink()
    sys.exit(0)
