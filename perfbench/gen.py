"""Seeded spec-file generator whose answers are known by construction.

Only ``fractions``, ``itertools``, ``json`` and ``random`` are used; nothing
here imports the package under test, so two commits that are compared get
byte-identical inputs for the same seed.

Valid structures are built from closed Chevalley-Eilenberg cocycles,
abelian l3/l4 data and graded Lie tables, then transported along a seeded
unimodular change of basis (dense, integer inverse).  Invalid structures are
confirmed invalid by the exact computations below.  A lie3 file is the
linfinity file with its maps renamed (l2 -> bracket, l3 -> J, -l4 -> mu).

Multimaps are dicts from canonical keys (tuples of (degree, index) sorted
ascending) to lists of Fractions, as in the on-disk format.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction as Q

# -- exact matrices (lists of rows of Fractions) ----------------------


def mat_mul(A, B):
    return [[sum((A[i][k] * B[k][j] for k in range(len(B))), Q(0))
             for j in range(len(B[0]))] for i in range(len(A))]


def mat_vec(A, v):
    return [sum((a * x for a, x in zip(row, v)), Q(0)) for row in A]


def mat_inv(A):
    n = len(A)
    M = [list(row) + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(A)]
    for c in range(n):
        p = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[p] = M[p], M[c]
        piv = M[c][c]
        M[c] = [x / piv for x in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return [row[n:] for row in M]


def det(A):
    n = len(A)
    M = [list(r) for r in A]
    out = Q(1)
    for c in range(n):
        p = next((r for r in range(c, n) if M[r][c] != 0), None)
        if p is None:
            return Q(0)
        if p != c:
            M[c], M[p] = M[p], M[c]
            out = -out
        out *= M[c][c]
        for r in range(c + 1, n):
            f = M[r][c] / M[c][c]
            M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return out


def nullspace(A, ncols):
    """Basis of {x : A x = 0} by exact reduced row echelon form."""
    M = [list(r) for r in A]
    pivots, r = [], 0
    for c in range(ncols):
        p = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        piv = M[r][c]
        M[r] = [x / piv for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Q(0)] * ncols
        v[free] = Q(1)
        for i, c in enumerate(pivots):
            v[c] = -M[i][free]
        basis.append(v)
    return basis


def rand_unimodular(rng: random.Random, n: int):
    """Dense integer matrix of determinant +-1: (unit lower) x (unit upper)."""
    L = [[Q(1) if i == j else (Q(rng.choice((-1, 1))) if j < i else Q(0))
          for j in range(n)] for i in range(n)]
    U = [[Q(1) if i == j else (Q(rng.choice((-1, 1))) if j > i else Q(0))
          for j in range(n)] for i in range(n)]
    P = mat_mul(L, U) if n else []
    if n and rng.random() < 0.5:
        P[0] = [-x for x in P[0]]
    return P


# -- alternating maps on degree 0 -------------------------------------


def perm_sign(seq) -> int:
    s = 1
    for a, b in itertools.combinations(seq, 2):
        if a > b:
            s = -s
    return s


def alt_eval(table: dict, idxs) -> list | None:
    """Value of an alternating map stored on sorted index tuples, or None."""
    if len(set(idxs)) != len(idxs):
        return None
    v = table.get(tuple(sorted(idxs)))
    if v is None:
        return None
    return v if perm_sign(idxs) > 0 else [-x for x in v]


def alt_transport(table: dict, n: int, k: int, P, Pout_inv) -> dict:
    """l'(e_I) = Pout^-1 sum_J det(P[J, I]) l(e_J) for sorted k-subsets I, J."""
    out = {}
    subsets = list(itertools.combinations(range(n), k))
    for I in subsets:
        acc = None
        for J, val in table.items():
            c = det([[P[j][i] for i in I] for j in J])
            if c:
                acc = [c * x for x in val] if acc is None else [a + c * x for a, x in zip(acc, val)]
        if acc is not None:
            acc = mat_vec(Pout_inv, acc)
            if any(acc):
                out[I] = acc
    return out


def ce_coboundary(bracket: dict, c: dict, n: int, k: int) -> dict:
    """Chevalley-Eilenberg coboundary of a scalar k-cochain, trivial action.

    (dc)(x_0..x_k) = sum_{p<q} (-1)^(p+q) c([x_p, x_q], x_0..^p..^q..x_k).
    ``bracket`` maps sorted pairs to output vectors; ``c`` sorted k-tuples to
    scalars.
    """
    cv = {key: [val] for key, val in c.items()}
    out = {}
    for idxs in itertools.combinations(range(n), k + 1):
        total = Q(0)
        for p, q in itertools.combinations(range(k + 1), 2):
            rest = [idxs[r] for r in range(k + 1) if r not in (p, q)]
            br = alt_eval(bracket, (idxs[p], idxs[q]))
            if br is None:
                continue
            for m, coeff in enumerate(br):
                if coeff:
                    val = alt_eval(cv, [m] + rest)
                    if val is not None:
                        total += coeff * val[0] * (1 if (p + q) % 2 == 0 else -1)
        if total:
            out[idxs] = total
    return out


def jacobiator(bracket: dict, n: int) -> dict:
    """[[x,y],z] + [[y,z],x] + [[z,x],y] on sorted basis triples of V0."""
    def br(v, j):  # [v, e_j] for a coordinate vector v
        acc = [Q(0)] * n
        for i, c in enumerate(v):
            if c:
                w = alt_eval(bracket, (i, j))
                if w is not None:
                    acc = [a + c * x for a, x in zip(acc, w)]
        return acc

    def e_br(i, j):
        return alt_eval(bracket, (i, j)) or [Q(0)] * n

    out = {}
    for x, y, z in itertools.combinations(range(n), 3):
        terms = (br(e_br(x, y), z), br(e_br(y, z), x), br(e_br(z, x), y))
        s = [a + b + c for a, b, c in zip(*terms)]
        if any(s):
            out[(x, y, z)] = s
    return out


# -- the structure families -------------------------------------------


def scaling_bracket(n: int) -> dict:
    """[e_0, e_k] = e_k for k >= 1 (solvable Lie algebra)."""
    return {(0, k): [Q(int(m == k)) for m in range(n)] for k in range(1, n)}


def closed_cochain(rng, bracket: dict, n: int) -> dict:
    """Seeded nonzero combination of a basis of closed 4-cocycles."""
    quads = list(itertools.combinations(range(n), 4))
    quints = list(itertools.combinations(range(n), 5))
    if not quads:
        return {}
    cols = [ce_coboundary(bracket, {q: Q(1)}, n, 4) for q in quads]
    A = [[col.get(t, Q(0)) for col in cols] for t in quints]
    basis = nullspace(A, len(quads)) if quints else [
        [Q(int(i == j)) for i in range(len(quads))] for j in range(len(quads))]
    if not basis:
        raise ValueError(f"no closed 4-cocycle on dimension {n}")
    c = {}
    for b in basis:
        s = Q(rng.choice((-2, -1, 1, 2)))
        for q, v in zip(quads, b):
            if v:
                c[q] = c.get(q, Q(0)) + s * v
    return {q: v for q, v in c.items() if v}


def non_closed_cochain(rng, bracket: dict, n: int) -> dict:
    if n < 5:
        raise ValueError("every 4-cochain is closed below dimension 5")
    quads = list(itertools.combinations(range(n), 4))
    while True:
        c = {q: Q(rng.choice((-2, -1, 1, 2))) for q in quads}
        if ce_coboundary(bracket, c, n, 4):
            return c


def non_lie_bracket(rng, n: int) -> dict:
    if n < 3:
        raise ValueError("every bracket is Lie below dimension 3")
    while True:
        b = {p: [Q(rng.randint(-1, 1)) for _ in range(n)]
             for p in itertools.combinations(range(n), 2)}
        if jacobiator(b, n):
            return b


# Structures are plain dicts: {"dims": (a, b, c), "l1".."l4": multimap}.


def two_term(rng, n: int, closed: bool) -> dict:
    """V0 = Q^n scaling algebra, V2 = Q, trivial action, l4 a 4-cochain."""
    br = scaling_bracket(n)
    c = closed_cochain(rng, br, n) if closed else non_closed_cochain(rng, br, n)
    P = rand_unimodular(rng, n)
    s = Q(rng.choice((-1, 1)))
    br2 = alt_transport(br, n, 2, P, mat_inv(P))
    c2 = alt_transport({k: [v] for k, v in c.items()}, n, 4, P, [[1 / s]])
    c2s = {k: v[0] for k, v in c2.items()}
    if bool(ce_coboundary(br2, c2s, n, 4)) == closed:
        raise AssertionError("cocycle condition not preserved by transport")
    return {"dims": (n, 0, 1), "l1": {}, "l3": {},
            "l2": {((0, i), (0, j)): v for (i, j), v in br2.items()},
            "l4": {tuple((0, i) for i in k): v for k, v in c2.items()}}


def abelian(rng, dims) -> dict:
    """Zero l1 and l2, random l3: V0^3 -> V1 and l4: V0^4 -> V2."""
    a, b, c = dims
    out = {"dims": tuple(dims), "l1": {}, "l2": {}}
    P = rand_unimodular(rng, a)
    for k, m in ((3, b), (4, c)):
        raw = {I: [Q(rng.randint(-2, 2)) for _ in range(m)]
               for I in itertools.combinations(range(a), k)}
        raw = {I: v for I, v in raw.items() if any(v)}
        Pout = rand_unimodular(rng, m)
        t = alt_transport(raw, a, k, P, mat_inv(Pout)) if m else {}
        out[f"l{k}"] = {tuple((0, i) for i in I): v for I, v in t.items()}
    return out


def graded_lie(rng, n: int, valid: bool) -> dict:
    """g (x) (Q + Q xi) with xi odd: dims (n, n, 0).

    [x 1, y 1] = [x,y] 1 and [x 1, y xi] = [x,y] xi; g is the scaling
    algebra (valid) or a seeded antisymmetric bracket failing Jacobi.
    """
    br = scaling_bracket(n) if valid else non_lie_bracket(rng, n)
    P0, P1 = rand_unimodular(rng, n), rand_unimodular(rng, n)
    P0i, P1i = mat_inv(P0), mat_inv(P1)
    br0 = alt_transport(br, n, 2, P0, P0i)
    if bool(jacobiator(br0, n)) == valid:
        raise AssertionError("Jacobi identity not decided as constructed")
    # mixed block: l2(e0_i, e1_j) = P1^-1 sum_{a,b} P0[a][i] P1[b][j] [e_a, e_b]
    mixed = {}
    for i in range(n):
        for j in range(n):
            acc = [Q(0)] * n
            for a_ in range(n):
                for b_ in range(n):
                    c = P0[a_][i] * P1[b_][j]
                    w = alt_eval(br, (a_, b_)) if c else None
                    if w is not None:
                        acc = [x + c * y for x, y in zip(acc, w)]
            acc = mat_vec(P1i, acc)
            if any(acc):
                mixed[((0, i), (1, j))] = acc
    l2 = {((0, i), (0, j)): v for (i, j), v in br0.items()}
    l2.update(mixed)
    return {"dims": (n, n, 0), "l1": {}, "l2": l2, "l3": {}, "l4": {}}


def lie_algebra(rng, n: int, valid: bool) -> dict:
    """Dims (n, 0, 0): the scaling algebra or a bracket failing Jacobi."""
    br = scaling_bracket(n) if valid else non_lie_bracket(rng, n)
    P = rand_unimodular(rng, n)
    br2 = alt_transport(br, n, 2, P, mat_inv(P))
    if bool(jacobiator(br2, n)) == valid:
        raise AssertionError("Jacobi identity not decided as constructed")
    return {"dims": (n, 0, 0), "l1": {}, "l3": {}, "l4": {},
            "l2": {((0, i), (0, j)): v for (i, j), v in br2.items()}}


def rank(A, ncols) -> int:
    return ncols - len(nullspace(A, ncols))


def chain_complex(rng, dims) -> dict:
    """Two-term complex V1 -> V0 with a full-rank differential (nonzero entries)."""
    a, b = dims
    while True:
        d1 = [[Q(rng.choice((-2, -1, 1, 2))) for _ in range(b)] for _ in range(a)]
        if rank(d1, b) == min(a, b):
            return {"dims": (a, b), "d1": d1}


def densest(build, tries: int = 8) -> dict:
    """The draw of ``build()`` with the most nonzero constants (then the
    smallest entries), out of ``tries``.

    The cost of a check grows with the number of nonzero structure
    constants, and a random change of basis sometimes cancels a few, so
    without this the time per operation would depend on the seed.
    """
    def score(s):
        vals = [x for k in ("l1", "l2", "l3", "l4") for v in s[k].values() for x in v]
        return (sum(1 for x in vals if x),
                -max((max(abs(x.numerator), x.denominator) for x in vals), default=0))
    return max((build() for _ in range(tries)), key=score)


# -- canonical rendering (the package's on-disk format) ---------------


def render_q(q: Q) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _render_map(m: dict) -> list:
    return [{"key": [[d, i] for d, i in key], "value": [render_q(c) for c in val]}
            for key, val in sorted(m.items()) if any(val)]


def _dump(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def render_linfinity(s: dict, label: str) -> str:
    return _dump({"kind": "linfinity", "dims": list(s["dims"]),
                  "maps": {k: _render_map(s[k]) for k in ("l1", "l2", "l3", "l4")},
                  "metadata": {"label": label}})


def lie3_maps(s: dict) -> dict:
    """The categorical constants: renaming only, with mu = -l4."""
    return {"l1": s["l1"], "bracket": s["l2"], "J": s["l3"],
            "mu": {k: [-x for x in v] for k, v in s["l4"].items()}}


def render_lie3(s: dict, label: str) -> str:
    return _dump({"kind": "lie3", "dims": list(s["dims"]),
                  "maps": {k: _render_map(v) for k, v in lie3_maps(s).items()},
                  "metadata": {"label": label}})


def render_chain(c: dict, label: str) -> str:
    maps = {"d1": [[render_q(x) for x in row] for row in c["d1"]]} if c["dims"][1] else {}
    return _dump({"kind": "chain", "dims": list(c["dims"]), "maps": maps,
                  "metadata": {"label": label}})


def parse_maps(text: str) -> dict:
    """Maps of a spec file as {name: {key: [Fraction]}} (zero entries dropped)."""
    obj = json.loads(text)
    return {name: {tuple(tuple(p) for p in e["key"]): [Q(x) for x in e["value"]]
                   for e in entries if any(Q(x) for x in e["value"])}
            for name, entries in obj["maps"].items()}
