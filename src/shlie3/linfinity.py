"""3-term homotopy Lie data and the defining identity checks.

The structure is a graded space V_0 + V_1 + V_2 with brackets l1..l4 of
weights -1..2.  The generalized Jacobi identity of order n is

    sum_{i+j=n+1} sum_{(i,n-i)-shuffles s} chi(s) (-1)^{i(j-1)}
        l_j(l_i(a_{s1},..,a_{si}), a_{s(i+1)},..,a_{sn}) = 0

and is checked exhaustively on canonical basis tuples; multilinearity makes
that complete.  As l_k has weight k - 2, the residual on degrees d_1..d_n
lies in degree sum(d_i) + n - 3; tuples where that is outside 0..2 are zero
for every structure and not compared.  Residuals are exact rational vectors.
Checks return the shared ``report.Report``; a failure's witness is the basis
tuple and its residual the degree sum(d_i) + n - 3 block of the left side.
"""

from __future__ import annotations

import functools
import itertools

from .graded import GradedSpace, MultiMap, Permutation, canonicalize, check_signatures, koszul_chi
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
    """(sign, i, positions) of the shuffle terms of order n on these degrees.
    An (i, n-i)-shuffle lists the 0-based positions ``first``, then the rest;
    its sign is (-1)^(i(n-i)) times the ``koszul_chi`` of that unshuffle."""
    shuffles = [(i, first + tuple(p for p in range(n) if p not in first))
                for i in range(max(1, n - 3), min(n, 4) + 1)
                for first in itertools.combinations(range(n), i)]
    return tuple(((-1) ** (i * (n - i)) * koszul_chi(Permutation([p + 1 for p in pos]), degrees),
                  i, pos) for i, pos in shuffles)


def accumulate_residual(data: LInfinityData, key: Key, terms: dict, coeff, out: dict) -> int:
    """Add coeff times the order-len(key) residual on a basis tuple (any order)
    to the index -> coefficient dict ``out``; return its degree.  ``terms``
    caches each degree pattern's shuffle signs, positions and bracket tables
    (``MultiMap.table``), whose inner outputs are keys of the outer one."""
    n, degrees = len(key), tuple(d for d, _ in key)
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
    return sum(degrees) + n - 3


def degree_tag(n: int, key: Key) -> str:
    return f"n={n} degrees ({', '.join(str(d) for d, _ in key)})"


def check_condition(data: LInfinityData, n: int) -> Report:
    """Exhaustive order-n check over the sorted basis tuples on which
    ``graded.canonicalize`` does not force the residual to zero.

    Only tuples whose residual degree sum(d_i) + n - 3 lies in 0..2 are
    compared and listed in ``checked``: on the others every term lands
    outside the grading (for n > 5, on every tuple).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    terms: dict = {}
    col = Collector(f"order-{n}")
    for key in itertools.combinations_with_replacement(data.space.basis(), n):
        if 0 <= sum(d for d, _ in key) + n - 3 <= data.space.top_degree and canonicalize(key)[1]:
            res: dict = {}
            dim = data.space.dims[accumulate_residual(data, key, terms, 1, res)]
            col.compare(degree_tag(n, key), key, dense(dim, res.items()), vzero(dim))
    return col.report()


def check_all(data: LInfinityData, n_max: int = 5) -> list[Report]:
    return [check_condition(data, n) for n in range(1, n_max + 1)]


def special_witness(l2: MultiMap, l3: MultiMap) -> Key | None:
    """The first key (l2's, then l3's, in sorted order) that stops the
    brackets from being special: l2 nonzero on V1 x V1, or l3 nonzero on a
    triple of total degree 1; None when there is none."""
    return next(itertools.chain((k for k, _ in l2.entries() if k[0][0] == k[1][0] == 1),
                                (k for k, _ in l3.entries() if sum(d for d, _ in k) == 1)), None)


def is_special(data: LInfinityData) -> tuple[bool, Key | None]:
    """True iff l2 vanishes on V1 x V1 and l3 on triples of total degree 1
    (``special_witness``), with the offending key otherwise."""
    return (witness := special_witness(data.l2, data.l3)) is None, witness
