"""3-term homotopy Lie data and the defining identity checks.

The structure is a graded space V_0 + V_1 + V_2 with brackets l1..l4 of
weights -1..2.  The generalized Jacobi identity of order n is

    sum_{i+j=n+1} sum_{(i,n-i)-shuffles s} chi(s) (-1)^{i(j-1)}
        l_j(l_i(a_{s1},..,a_{si}), a_{s(i+1)},..,a_{sn}) = 0

and is checked exhaustively on canonical basis tuples; multilinearity makes
that complete.  As l_k has weight k - 2, the residual on degrees d_1..d_n
lies in degree sum(d_i) + n - 3; tuples where that is outside 0..2 are zero
and skipped.  All residuals are exact rational vectors.  Checks return the
shared ``report.Report``; a failure's witness is the basis tuple and its
residual the degree sum(d_i) + n - 3 block of the left-hand side.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from typing import Sequence

from .graded import (GradedSpace, GradedVector, MultiMap, enumerate_shuffles,
                     koszul_chi)
from .linalg import vzero
from .report import Collector, Report

Key = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class LInfinityData:
    """Candidate 3-term structure: (V, l1, l2, l3, l4)."""

    space: GradedSpace
    l1: MultiMap
    l2: MultiMap
    l3: MultiMap
    l4: MultiMap

    def __post_init__(self):
        if self.space.top_degree != 2:
            raise ValueError("a 3-term structure lives in degrees 0..2")
        expect = {1: (self.l1, -1), 2: (self.l2, 0), 3: (self.l3, 1), 4: (self.l4, 2)}
        for arity, (m, w) in expect.items():
            if m.space != self.space:
                raise ValueError(f"l{arity} lives on a different space")
            if m.arity != arity or m.weight != w:
                raise ValueError(f"l{arity} must have arity {arity} and weight {w}")

    def bracket(self, k: int) -> MultiMap | None:
        return {1: self.l1, 2: self.l2, 3: self.l3, 4: self.l4}.get(k)

    @staticmethod
    def zero(space: GradedSpace) -> "LInfinityData":
        return LInfinityData(space,
                             MultiMap.zero(1, -1, space), MultiMap.zero(2, 0, space),
                             MultiMap.zero(3, 1, space), MultiMap.zero(4, 2, space))


def _accumulate(data: LInfinityData, key: Key, terms: dict, coeff, out: dict) -> int:
    """Add coeff times the order-len(key) residual on a basis tuple (any order)
    to the index -> coefficient dict ``out``; return its degree.  ``terms``
    caches each degree pattern's shuffle signs, positions and bracket tables."""
    n, degrees = len(key), tuple(d for d, _ in key)
    r = sum(degrees) + n - 3
    if not 0 <= r <= data.space.top_degree:
        return r  # every term lands outside the grading
    if degrees not in terms:
        terms[degrees] = [
            (koszul_chi(s, degrees) * (-1) ** (i * (n - i)), i, [p - 1 for p in s.images],
             data.bracket(i).table(), data.bracket(n + 1 - i).table())
            for i in range(max(1, n - 3), min(n, 4) + 1)
            if data.bracket(i).coeffs and data.bracket(n + 1 - i).coeffs
            for s in enumerate_shuffles(i, n - i)]
    for sign, i, pos, li, lj in terms[degrees]:
        perm = tuple(key[p] for p in pos)
        inner = li.get(perm[:i])
        for a, c in inner[1] if inner else ():
            hit = lj.get(((inner[0], a),) + perm[i:])
            for b, v in hit[1] if hit else ():
                out[b] = out.get(b, 0) + sign * coeff * c * v
    return r


def linfty_residual(data: LInfinityData, n: int, args: Sequence[GradedVector]) -> GradedVector:
    """Left-hand side of the order-n identity, expanded over basis tuples."""
    if len(args) != n:
        raise ValueError(f"order {n} needs {n} arguments")
    for a in args:
        if a.space != data.space:
            raise ValueError("argument from a different space")
        if a.degree() is None and not a.is_zero():
            raise ValueError("arguments must be homogeneous")
    terms, out, r = {}, {}, 0
    for combo in itertools.product(*(a.support() for a in args)):
        r = _accumulate(data, tuple(b for b, _ in combo), terms,
                        prod(c for _, c in combo), out)
    return GradedVector.from_sparse(data.space, r, out)


def _canonical_tuples(space: GradedSpace, n: int):
    """Basis tuples in canonical order; repeated even-degree entries are skipped
    since the residual is graded antisymmetric."""
    for key in itertools.combinations_with_replacement(space.basis(), n):
        if any(a == b and a[0] % 2 == 0 for a, b in zip(key, key[1:])):
            continue
        yield key


def degree_tag(n: int, key: Key) -> str:
    return f"n={n} degrees ({', '.join(str(d) for d, _ in key)})"


def check_condition(data: LInfinityData, n: int) -> Report:
    """Exhaustive order-n check over canonical basis tuples.

    Tuples whose residual degree sum(d_i) + n - 3 lies outside 0..2 (for
    n > 5, all of them) are zero by construction: skipped, but still listed
    in ``checked``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    terms: dict = {}
    col = Collector(f"order-{n}")
    dims, top = data.space.dims, data.space.top_degree
    for key in _canonical_tuples(data.space, n):
        res: dict = {}
        r = _accumulate(data, key, terms, 1, res)
        dim = dims[r] if 0 <= r <= top else 0
        col.compare(degree_tag(n, key), key, tuple(res.get(i, 0) for i in range(dim)), vzero(dim))
    return col.report()


def check_all(data: LInfinityData, n_max: int = 5) -> list[Report]:
    return [check_condition(data, n) for n in range(1, n_max + 1)]


def is_special(data: LInfinityData) -> tuple[bool, Key | None]:
    """True iff l2 vanishes on V1 x V1 and l3 on triples of total degree 1."""
    for key, _ in data.l2.entries():
        if key[0][0] == 1 and key[1][0] == 1:
            return False, key
    for key, _ in data.l3.entries():
        if sum(d for d, _ in key) == 1:
            return False, key
    return True, None


def from_four_cocycle(bracket: MultiMap, action: MultiMap, cochain: MultiMap) -> LInfinityData:
    """Assemble (V, l2 = bracket + action, l3 = 0, l4 = cochain) with V_1 = 0.

    The caller decides validity by running the order 1..5 checks: n=3 is the
    Jacobi identity, n=4 the representation law, n=5 the cocycle law.
    """
    space = bracket.space
    if space.dims[1] != 0:
        raise ValueError("the two-term construction requires dim V_1 = 0")
    for m, name, (ar, w) in ((bracket, "bracket", (2, 0)), (action, "action", (2, 0)),
                             (cochain, "cochain", (4, 2))):
        if m.space != space:
            raise ValueError(f"{name} lives on a different space")
        if (m.arity, m.weight) != (ar, w):
            raise ValueError(f"{name} must have arity {ar} and weight {w}")
    for key, _ in bracket.entries():
        if any(d != 0 for d, _ in key):
            raise ValueError("bracket entries must be on V0 x V0")
    for key, _ in action.entries():
        if sorted(d for d, _ in key) != [0, 2]:
            raise ValueError("action entries must pair V0 with V2")
    for key, _ in cochain.entries():
        if any(d != 0 for d, _ in key):
            raise ValueError("cochain entries must be on V0^4")
    return LInfinityData(space, MultiMap.zero(1, -1, space), bracket + action,
                         MultiMap.zero(3, 1, space), cochain)
