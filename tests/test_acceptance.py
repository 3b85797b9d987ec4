"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Every check is exact; there are no tolerances anywhere.
"""

import itertools
import math
import random
from fractions import Fraction as Q

from shlie3.chain import ChainComplexT
from shlie3.graded import GradedSpace, MultiMap, Permutation, build_multimap, koszul_chi
from shlie3.linalg import Matrix, vis_zero
from shlie3.lincat import from_chain, to_chain
from shlie3.lie3 import (Lie3Data, alpha_cell, check_coherence, from_linfinity,
                         to_linfinity)
from shlie3.linfinity import LInfinityData, check_all, check_condition
from shlie3.simplicial import (aw, aw_after_ez_identity, aw_ez_homology_check,
                               ez, moore_of_nerve_check, nerve, obstruction_demo)

from helpers import (SeedCat, abelian_l3_l4, ce_cocycles4, ce_differential, enumerate_shuffles,
                     flat, from_four_cocycle, rand_chain2, inverse2, rand_chain3,
                     scaling_brackets, seed_axioms_hold, seed_spanning_pairs,
                     special_valid_samples)
from test_lie3 import (alpha_v2_oracle, quintuple_pool, scaling_cat,
                       squared_target_oracle, _t2, _l, _gv0)


def report(name: str, ok: bool):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_1_sign_kernel():
    ok = True
    for n in range(1, 6):
        perms = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
        degs = list(itertools.product((0, 1, 2), repeat=n)) if n <= 3 else [
            tuple((i * 7 + 3) % 3 for i in range(n)),
            tuple(1 for _ in range(n)),
            tuple((i + 1) % 2 for i in range(n))]
        for s in perms:
            for t in perms:
                for deg in degs:
                    if koszul_chi(s.compose(t), deg) != \
                            koszul_chi(s, t.apply(deg)) * koszul_chi(t, deg):
                        ok = False
    for total in range(1, 8):
        for i in range(total + 1):
            if len(enumerate_shuffles(i, total - i)) != math.comb(total, i):
                ok = False
    report("1 sign kernel (chi multiplicativity, shuffle counts)", ok)


def test_criterion_2_category_calculus():
    rng = random.Random(20)
    ok = True
    for k in range(50):
        dims = (rng.randint(1, 2), rng.randint(0, 2), rng.randint(0, 1))
        if k % 10 == 0:
            dims = (rng.randint(2, 3), 2, rng.randint(1, 2))
        C = rand_chain3(rng, dims)
        L = from_chain(C)
        if not seed_axioms_hold(L, L.compose):
            ok = False
        D = to_chain(L)
        if D.dims != C.dims or any(D.diff(n) != C.diff(n) for n in (1, 2)):
            ok = False
        if from_chain(D) != L:
            ok = False
    report("2 category calculus (axioms, exact roundtrips)", ok)


def test_criterion_3_unique_composition():
    rng = random.Random(30)
    ok = True
    for _ in range(10):
        L = from_chain(rand_chain3(rng, (rng.randint(1, 3), rng.randint(0, 2),
                                         rng.randint(0, 2))))
        C = SeedCat(L)
        for m in range(1, 3):
            for p in range(m):
                for a, b in seed_spanning_pairs(L, m, p):
                    if L.compose(m, flat(a), flat(b), p) != flat(C.compose_via_units(a, b, p)):
                        ok = False
    report("3 unique composition (identity-cell derivation)", ok)


def test_criterion_4_main_theorem_roundtrip():
    rng = random.Random(40)
    ok = True
    for A in special_valid_samples(rng, 25):
        try:
            D = from_linfinity(A)   # gated on the homotopy identities
            B = to_linfinity(D)     # gated on the four categorical checks
        except Exception:
            ok = False
            continue
        if not (B.l1 == A.l1 and B.l2 == A.l2 and B.l3 == A.l3 and B.l4 == A.l4):
            ok = False
    report("4 main theorem roundtrip (25 samples, checks in between)", ok)


def test_criterion_5_coherence_iff_order5():
    rng = random.Random(50)
    base = scaling_cat()
    quads = list(itertools.combinations(range(5), 4))
    tup = (0, 1, 2, 3, 4)
    ok = True
    for _ in range(25):
        raw = [((tuple((0, i) for i in k)), (Q(rng.randint(-2, 2)),)) for k in quads]
        pert = build_multimap(4, 2, base.space, raw)
        D = Lie3Data(base.cat, base.bracket_constants, base.J, base.mu + pert)
        coh = check_coherence(D, tuples=[tup])
        A = LInfinityData(D.space, D.cat.t_data, D.bracket_constants, D.J,
                          D.mu.scale(-1))
        order5 = check_condition(A, 5)
        if coh.passed != order5.passed:
            ok = False
        if any(f.identity == "order5-agreement" for f in coh.failures):
            ok = False
    report("5 coherence law is exactly the order-5 identity (25 perturbations)", ok)


def test_criterion_6_alpha_cell_oracle():
    ok = True
    for D in (from_linfinity(abelian_l3_l4(random.Random(0), (2, 1, 1))),
              scaling_cat()):
        l2, _ = _l(D)
        for args in quintuple_pool(D):
            x, y = _gv0(D, args[0]), _gv0(D, args[1])
            A = l2(l2(l2(l2(x, y), _gv0(D, args[2])), _gv0(D, args[3])),
                   _gv0(D, args[4])).component(0)
            cells = {i: alpha_cell(D, i, *args) for i in (1, 2, 3, 4)}
            for i, cell in cells.items():
                if cell.components[0] != A:
                    ok = False
                if cell.components[2] != alpha_v2_oracle(D, i, *args):
                    ok = False
            want = squared_target_oracle(D, *args)
            t2s = (_t2(D, cells[1]), _t2(D, inverse2(D, cells[4])),
                   _t2(D, cells[3]), _t2(D, inverse2(D, cells[2])))
            if any(t != want for t in t2s):
                ok = False
    report("6 coherence cells match the closed component forms", ok)


def test_criterion_7_simplicial_layer():
    rng = random.Random(70)
    ok = True
    for dims in ((2, 1), (1, 2), (3, 3), (2, 2)):
        L = from_chain(rand_chain2(rng, dims))
        S = nerve(L, 3)
        if not moore_of_nerve_check(L, S).passed:
            ok = False
        T = nerve(from_chain(rand_chain2(rng, (2, 1))), 3)
        f, g = ez(S, T), aw(S, T)
        if not (f.is_chain_map().passed and g.is_chain_map().passed):
            ok = False
        if not aw_after_ez_identity(f, g).passed:
            ok = False
        if not aw_ez_homology_check(f, g).passed:
            ok = False
    report("7 simplicial layer (nerve normalization, shuffle/front-face maps)", ok)


def test_criterion_8_obstruction():
    rng = random.Random(80)
    ok = True
    for dims in ((1, 1), (2, 1), (2, 2), (3, 2)):
        identity, pairing, kernel_dim = obstruction_demo(from_chain(rand_chain2(rng, dims)))
        if not (identity.passed and not pairing.passed
                and not vis_zero(pairing.failures[0].residual) and kernel_dim > 0):
            ok = False
    identity, pairing, kernel_dim = obstruction_demo(
        from_chain(ChainComplexT((2, 0), (Matrix.zeros(2, 0),))))
    if not (identity.passed and pairing.passed and kernel_dim == 0):
        ok = False
    report("8 tensor-nerve obstruction (witness for V1 > 0, none for V1 = 0)", ok)


def test_criterion_9_four_cocycle_gate():
    brackets = scaling_brackets()
    space = GradedSpace((5, 0, 1))
    raw2 = [((((0, i), (0, j))), tuple(ev.get(m, Q(0)) for m in range(5)))
            for (i, j), ev in brackets.items()]
    bracket = build_multimap(2, 0, space, raw2)
    action = MultiMap.zero(2, 0, space)

    def l4_of(c):
        raw = [((tuple((0, i) for i in k)), (v,)) for k, v in c.items()]
        return build_multimap(4, 2, space, raw)

    ok = True
    good = ce_cocycles4(brackets)[0]
    reports = check_all(from_four_cocycle(bracket, action, l4_of(good)), 5)
    if not all(r.passed for r in reports):
        ok = False
    bad = {(1, 2, 3, 4): Q(1)}
    if not ce_differential(brackets, bad, 5, 4):
        ok = False  # the oracle must agree the cochain is not closed
    reports = check_all(from_four_cocycle(bracket, action, l4_of(bad)), 5)
    if not (all(r.passed for r in reports[:4]) and not reports[4].passed):
        ok = False
    report("9 four-cocycle gate (closed passes, non-closed fails only n=5)", ok)
