import itertools
import random
from fractions import Fraction as Q

import pytest

from shlie3 import lie3
from shlie3.graded import GradedSpace, GradedVector, MultiMap, build_multimap
from shlie3.linalg import vadd, vis_zero, vsub, vzero
from shlie3.lie3 import (ConversionError, Lie3Data, J_cell, alpha_cell,
                         bracket_cells, bracket_objects, check_bifunctor,
                         check_coherence, check_identiator, check_jacobiator,
                         coherence_residual, eta_epsilon, from_linfinity,
                         inverse2, mu_cell, to_linfinity)
from shlie3.linfinity import LInfinityData, check_all, check_condition
from shlie3.specfile import build_lie3, parse_spec, render_lie3

from helpers import (abelian_l3_l4, ce_cocycles4, graded_lie_data, l1_only,
                     rand_brackets, rand_vec, scaling_brackets,
                     special_valid_samples, two_term_data)


def abelian_cat(dims=(2, 1, 1), seed=0):
    return from_linfinity(abelian_l3_l4(random.Random(seed), dims))


def glambda_cat(n=3):
    tbl = {(0, k): {k: Q(1)} for k in range(1, n)}
    return from_linfinity(graded_lie_data(tbl, n))


def scaling_cat(cocycle=None):
    c = ce_cocycles4(scaling_brackets())[0] if cocycle is None else cocycle
    return from_linfinity(two_term_data(scaling_brackets(), c))


def e0_basis(D):
    n = D.cat.dim(0)
    return [tuple(Q(1) if j == i else Q(0) for j in range(n)) for i in range(n)]


# -- bracket / J / mu cells -------------------------------------------

def test_bracket_objects_matches_l2():
    D = glambda_cat()
    e = e0_basis(D)
    l2 = D.bracket_constants
    got = bracket_objects(D, e[0], e[1])
    want = l2.eval_basis(((0, 0), (0, 1))).component(0)
    assert got == want


def test_bracket_cells_boundaries():
    D = glambda_cat()
    L = D.cat
    for a in L.spanning_cells(2):
        for b in L.spanning_cells(2):
            ab = bracket_cells(D, a, b)
            sa, sb = L.source(a), L.source(b)
            assert L.source(ab) == bracket_cells(D, sa, sb)


def test_J_cell_source_is_triple_bracket():
    D = abelian_cat()
    e = e0_basis(D)
    jc = J_cell(D, e[0], e[1], e[0])
    src = bracket_objects(D, bracket_objects(D, e[0], e[1]), e[0])
    assert D.cat.source(jc).components[0] == src


def test_mu_inverse_composes_to_identity():
    D = abelian_cat()
    e = e0_basis(D)
    m = mu_cell(D, e[0], e[1], e[0], e[1])
    inv = inverse2(D, m)
    unit = D.cat.identity(D.cat.source(m))
    assert D.cat.compose(m, inv, 1) == unit


def _with_random_constants(rng, D, bracket=False):
    """D with random J and mu on degree-0 tuples and, if asked, a random
    bracket (zero on V1 x V1, generally not Lie); the data is invalid."""
    R = rand_brackets(rng, D.space.dims, density=1.0)

    def keep(m, ok):
        return build_multimap(m.arity, m.weight, D.space,
                              [(k, v) for k, v in m.entries() if ok(k)])

    degree0 = lambda k: all(d == 0 for d, _ in k)
    l2 = keep(R.l2, lambda k: k[0][0] + k[1][0] < 2) if bracket else D.bracket_constants
    return Lie3Data(D.cat, l2, keep(R.l3, degree0), keep(R.l4, degree0))


@pytest.mark.parametrize("case", ["valid-glambda", "valid-scaling", "random-J-mu",
                                  "non-Lie-bracket"])
def test_mu_cell_source_matches_eta_composite(case):
    """The closed-form V0/V1 parts of mu_cell equal the composite eta."""
    rng = random.Random(11)
    if case == "valid-glambda":
        D = glambda_cat()
    elif case == "valid-scaling":
        D = scaling_cat()
    elif case == "random-J-mu":
        D = _with_random_constants(rng, glambda_cat())
    else:
        D = _with_random_constants(rng, from_linfinity(l1_only(rng, (3, 2, 1))), bracket=True)
    n = D.cat.dim(0)
    nontrivial = False
    for _ in range(8):
        args = [rand_vec(rng, n) for _ in range(4)]
        eta, _ = eta_epsilon(D, *args)
        mc = mu_cell(D, *args)
        assert D.cat.source(mc) == eta
        nontrivial |= not vis_zero(eta.components[1])
    if not case.startswith("valid"):  # the valid samples have J = 0 or V1 = 0
        assert nontrivial


def test_cell_tables_built_lazily_once_per_structure(monkeypatch):
    """Constructing a Lie3Data (from_linfinity, build_lie3) compiles no table;
    the checks compile each of the five tables once per structure."""
    built = []
    compile_ = lie3._compile
    monkeypatch.setattr(lie3, "_compile", lambda dims, f: built.append(dims) or compile_(dims, f))
    D = glambda_cat()
    E = build_lie3(parse_spec(render_lie3(D)))
    assert built == []
    for _ in range(2):
        for check in (check_bifunctor, check_jacobiator, check_identiator, check_coherence):
            assert check(D).passed
    n0, n1, n2 = D.space.dims
    assert sorted(built) == sorted([(n0, n0), (n0 + n1,) * 2, (n0 + n1 + n2,) * 2,
                                    (n0,) * 3, (n0,) * 4])
    assert all(name not in vars(E) for name in ("_bracket_tables", "_J_table", "_mu_table"))


# -- the four categorical checks on valid data ------------------------

@pytest.mark.parametrize("maker", [abelian_cat, glambda_cat, scaling_cat])
def test_valid_data_passes_all_checks(maker):
    D = maker()
    assert check_bifunctor(D).passed
    assert check_jacobiator(D).passed
    assert check_identiator(D).passed
    tuples = None
    if D.cat.dim(0) >= 4:
        tuples = [t for t in itertools.combinations(range(D.cat.dim(0)), 5)]
    rep = check_coherence(D, tuples=tuples)
    assert rep.passed  # passing includes agreement with the order-5 residual


# -- perturbations are detected ---------------------------------------

def _l1_only_cat(dims=(3, 1, 1)):
    space = GradedSpace(dims)
    l1 = build_multimap(1, -1, space, [(((1, 0),), (Q(1),) + (Q(0),) * (dims[0] - 1))])
    A = LInfinityData(space, l1, MultiMap.zero(2, 0, space),
                      MultiMap.zero(3, 1, space), MultiMap.zero(4, 2, space))
    assert all(r.passed for r in check_all(A))
    return from_linfinity(A)


def test_bracket_perturbation_breaks_bifunctor():
    D = _l1_only_cat()
    pert = build_multimap(2, 0, D.space, [((((0, 1), (1, 0))), (Q(1),))])
    D2 = Lie3Data(D.cat, D.bracket_constants + pert, D.J, D.mu)
    rep = check_bifunctor(D2)
    assert not rep.passed
    assert any("chain-rule" in f.identity for f in rep.failures)


def test_J_perturbation_breaks_jacobiator():
    D = _l1_only_cat()
    pert = build_multimap(3, 1, D.space, [((((0, 0), (0, 1), (0, 2))), (Q(1),))])
    D2 = Lie3Data(D.cat, D.bracket_constants, D.J + pert, D.mu)
    rep = check_jacobiator(D2)
    assert not rep.passed
    assert any(f.identity == "target" for f in rep.failures)


def test_mu_perturbation_breaks_identiator():
    space = GradedSpace((4, 2, 1))
    l1 = build_multimap(1, -1, space, [(((1, 0),), (Q(1), Q(0), Q(0), Q(0))),
                                       (((2, 0),), (Q(0), Q(1)))])
    A = LInfinityData(space, l1, MultiMap.zero(2, 0, space),
                      MultiMap.zero(3, 1, space), MultiMap.zero(4, 2, space))
    assert all(r.passed for r in check_all(A))
    D = from_linfinity(A)
    pert = build_multimap(4, 2, space, [((((0, 0), (0, 1), (0, 2), (0, 3))), (Q(1),))])
    D2 = Lie3Data(D.cat, D.bracket_constants, D.J, D.mu + pert)
    rep = check_identiator(D2)
    assert not rep.passed
    assert any(f.identity == "target" for f in rep.failures)


def test_mu_perturbation_breaks_coherence_iff_order5():
    D = scaling_cat()
    tup = (0, 1, 2, 3, 4)
    bad = build_multimap(4, 2, D.space, [((((0, 1), (0, 2), (0, 3), (0, 4))), (Q(1),))])
    D2 = Lie3Data(D.cat, D.bracket_constants, D.J, D.mu + bad)
    rep = check_coherence(D2, tuples=[tup])
    assert not rep.passed
    # residual equals the order-5 left-hand side
    assert all(f.identity != "order5-agreement" for f in rep.failures)
    # the corresponding homotopy data fails order 5 as well
    A2 = LInfinityData(D.space, to_linfinity(D).l1, D.bracket_constants,
                       D.J, (D.mu + bad).scale(-1))
    assert not check_condition(A2, 5).passed


# -- alpha cells against the printed component formulas ---------------

def _l(D):
    l2 = lambda a, b: D.bracket_constants.eval([a, b])
    l4m = D.mu.scale(-1)
    l4 = lambda a, b, c, d: l4m.eval([a, b, c, d])
    return l2, l4


def _gv0(D, v):
    return GradedVector.from_component(D.space, 0, v)


def alpha_v2_oracle(D, i, x, y, z, u, v):
    """Closed-form V2 components of the four coherence cells."""
    l2, l4 = _l(D)
    X, Y, Z, U, V = (_gv0(D, w) for w in (x, y, z, u, v))
    if i == 1:
        out = -(l4(X, Y, Z, l2(U, V)) + l2(l4(X, Y, Z, V), U)
                + l4(l2(X, V), Y, Z, U) + l4(X, l2(Y, V), Z, U)
                + l4(X, Y, l2(Z, V), U))
    elif i == 4:
        out = -(l2(l4(X, Y, Z, U), V) + l4(l2(X, U), Y, Z, V)
                + l4(X, l2(Y, U), Z, V) + l4(X, Y, l2(Z, U), V))
    elif i == 3:
        out = -(l4(l2(X, Y), Z, U, V) + l2(l4(X, Y, U, V), Z))
    else:
        out = -(l4(l2(X, Z), Y, U, V) + l4(X, l2(Y, Z), U, V)
                + l2(X, l4(Y, Z, U, V)) + l2(l4(X, Z, U, V), Y))
    return out.component(2)


def quad_G(D, a, b, c, d):
    """Independent copy of the common squared-target summand."""
    l2, _ = _l(D)
    br = l2
    return (br(br(a, c), br(b, d)) + br(a, br(br(b, d), c))
            + br(br(br(a, d), c), b) + br(br(a, d), br(b, c))
            + br(br(a, br(c, d)), b) + br(a, br(b, br(c, d))))


def squared_target_oracle(D, x, y, z, u, v):
    """The 24-term object: sum of G over the four (u,v)-insertions."""
    l2, _ = _l(D)
    X, Y, Z, U, V = (_gv0(D, w) for w in (x, y, z, u, v))
    out = (quad_G(D, l2(X, V), Y, Z, U) + quad_G(D, X, l2(Y, V), Z, U)
           + quad_G(D, X, Y, l2(Z, V), U) + quad_G(D, X, Y, Z, l2(U, V)))
    return out.component(0)


def _t2(D, cell):
    return D.cat.target(D.cat.target(cell)).components[0]


def quintuple_pool(D):
    n = D.cat.dim(0)
    e = e0_basis(D)
    if n <= 2:
        return [tuple(e[i] for i in key)
                for key in itertools.product(range(n), repeat=5)]
    pool = [tuple(e[i] for i in key)
            for key in itertools.permutations(range(n), 5)]
    rng = random.Random(0)
    for _ in range(20):
        pool.append(tuple(e[rng.randrange(n)] for _ in range(5)))
    return pool


@pytest.mark.parametrize("maker", [lambda: abelian_cat((2, 1, 1)),
                                   lambda: glambda_cat(2), scaling_cat])
def test_alpha_cells_match_closed_forms(maker):
    D = maker()
    l2, _ = _l(D)
    for args in quintuple_pool(D):
        x, y, z, u, v = args
        X, Y = _gv0(D, x), _gv0(D, y)
        A = l2(l2(l2(l2(X, Y), _gv0(D, z)), _gv0(D, u)), _gv0(D, v)).component(0)
        cells = {i: alpha_cell(D, i, *args) for i in (1, 2, 3, 4)}
        for i, cell in cells.items():
            assert cell.components[0] == A
            assert cell.components[2] == alpha_v2_oracle(D, i, *args), i
        t2s = [_t2(D, cells[1]), _t2(D, inverse2(D, cells[4])),
               _t2(D, cells[3]), _t2(D, inverse2(D, cells[2]))]
        want = squared_target_oracle(D, *args)
        assert all(t == want for t in t2s)


def test_coherence_residual_is_globular():
    D = abelian_cat((2, 1, 1))
    e = e0_basis(D)
    res = coherence_residual(D, e[0], e[1], e[0], e[1], e[0])
    assert vis_zero(res.components[0]) and vis_zero(res.components[1])
    assert vis_zero(res.components[2])  # valid data: the law holds


# -- conversions ------------------------------------------------------

def test_roundtrip_exact_on_valid_samples():
    rng = random.Random(123)
    for A in special_valid_samples(rng, 8):
        D = from_linfinity(A)
        B = to_linfinity(D)
        assert B.l1 == A.l1 and B.l2 == A.l2
        assert B.l3 == A.l3 and B.l4 == A.l4


def test_from_linfinity_rejects_invalid():
    bad = two_term_data(scaling_brackets(), {(1, 2, 3, 4): Q(1)})
    with pytest.raises(ConversionError):
        from_linfinity(bad)


def test_from_linfinity_rejects_non_special():
    space = GradedSpace((1, 2, 1))
    l2 = build_multimap(2, 0, space, [((((1, 0), (1, 1))), (Q(1),))])
    data = LInfinityData(space, MultiMap.zero(1, -1, space), l2,
                         MultiMap.zero(3, 1, space), MultiMap.zero(4, 2, space))
    with pytest.raises(ConversionError):
        from_linfinity(data)


def test_to_linfinity_rejects_broken_category_data():
    D = _l1_only_cat()
    pert = build_multimap(2, 0, D.space, [((((0, 1), (1, 0))), (Q(1),))])
    D2 = Lie3Data(D.cat, D.bracket_constants + pert, D.J, D.mu)
    with pytest.raises(ConversionError):
        to_linfinity(D2)
