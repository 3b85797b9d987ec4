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

import functools
import itertools

from .graded import GradedSpace, MultiMap, check_signatures, enumerate_shuffles, koszul_chi
from .linalg import Frozen, dense, vzero
from .report import Collector, Report

Key = tuple[tuple[int, int], ...]


class LInfinityData(Frozen):
    """Candidate 3-term structure: (V, l1, l2, l3, l4)."""

    __slots__ = _fields = ("space", "l1", "l2", "l3", "l4")

    def __post_init__(self):
        if self.space.top_degree != 2:
            raise ValueError("a 3-term structure lives in degrees 0..2")
        check_signatures(self.space, (("l1", self.l1, 1, -1), ("l2", self.l2, 2, 0),
                                      ("l3", self.l3, 3, 1), ("l4", self.l4, 4, 2)))

    def bracket(self, k: int) -> MultiMap | None:
        return {1: self.l1, 2: self.l2, 3: self.l3, 4: self.l4}.get(k)

    @staticmethod
    def zero(space: GradedSpace) -> "LInfinityData":
        return LInfinityData(space,
                             MultiMap.zero(1, -1, space), MultiMap.zero(2, 0, space),
                             MultiMap.zero(3, 1, space), MultiMap.zero(4, 2, space))


@functools.cache
def _shuffle_terms(n: int, degrees: tuple[int, ...]) -> tuple:
    """(sign, i, positions) of the shuffle terms of order n on these degrees."""
    return tuple((koszul_chi(s, degrees) * (-1) ** (i * (n - i)), i,
                  tuple(p - 1 for p in s.images))
                 for i in range(max(1, n - 3), min(n, 4) + 1)
                 for s in enumerate_shuffles(i, n - i))


def accumulate_residual(data: LInfinityData, key: Key, terms: dict, coeff, out: dict) -> int:
    """Add coeff times the order-len(key) residual on a basis tuple (any order)
    to the index -> coefficient dict ``out``; return its degree.  ``terms``
    caches each degree pattern's shuffle signs, positions and bracket tables
    (``MultiMap.table``), whose inner outputs are keys of the outer one."""
    n, degrees = len(key), tuple(d for d, _ in key)
    r = sum(degrees) + n - 3
    if not 0 <= r <= data.space.top_degree:
        return r  # every term lands outside the grading
    if degrees not in terms:
        terms[degrees] = [
            (sign, i, pos, data.bracket(i).table(), data.bracket(n + 1 - i).table())
            for sign, i, pos in _shuffle_terms(n, degrees)
            if data.bracket(i).coeffs and data.bracket(n + 1 - i).coeffs]
    for sign, i, pos, li, lj in terms[degrees]:
        perm = tuple(key[p] for p in pos)
        for a, c in li.get(perm[:i], ()):
            for (_, b), v in lj.get((a,) + perm[i:], ()):
                out[b] = out.get(b, 0) + sign * coeff * c * v
    return r


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
        r = accumulate_residual(data, key, terms, 1, res)
        dim = dims[r] if 0 <= r <= top else 0
        col.compare(degree_tag(n, key), key, dense(dim, res.items()), vzero(dim))
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
