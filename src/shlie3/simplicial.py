"""Truncated simplicial vector spaces, nerves, normalization, EZ/AW maps.

Everything is finite-dimensional and truncated at a fixed top level; all
identities are verified exactly within the truncation.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence

from .chain import ChainComplexT, ChainMapT, induced_on_homology, tensor_complex
from .graded import Permutation
from .lincat import LinearNCat, NFunctor, TensorCat, tensor_product
from .linalg import Frozen, Matrix, Vector, hstack, vis_zero, vstack, vsub


class SimplicialVS(Frozen):
    """Simplicial vector space truncated at level N.

    ``faces[n-1][i]`` is d_i: S_n -> S_{n-1} (n in 1..N, 0 <= i <= n) and
    ``degens[n][i]`` is s_i: S_n -> S_{n+1} (n in 0..N-1, 0 <= i <= n).
    """

    _fields = ("dims", "faces", "degens")
    __slots__ = (*_fields, "_normal")

    def __post_init__(self):
        object.__setattr__(self, "_normal", None)
        N = len(self.dims) - 1
        if N < 1:
            raise ValueError("need at least levels 0 and 1")
        if len(self.faces) != N or len(self.degens) != N:
            raise ValueError("face/degeneracy family lengths do not match truncation")
        for n in range(1, N + 1):
            ops = self.faces[n - 1]
            if len(ops) != n + 1:
                raise ValueError(f"level {n} needs faces d_0..d_{n}")
            for d in ops:
                if d.shape != (self.dims[n - 1], self.dims[n]):
                    raise ValueError(f"face at level {n} has shape {d.shape}")
        for n in range(N):
            ops = self.degens[n]
            if len(ops) != n + 1:
                raise ValueError(f"level {n} needs degeneracies s_0..s_{n}")
            for s in ops:
                if s.shape != (self.dims[n + 1], self.dims[n]):
                    raise ValueError(f"degeneracy at level {n} has shape {s.shape}")
        self._check_identities()

    @staticmethod
    def map_indices(N: int) -> tuple[list, list]:
        """The (n, i) of the faces d_i on S_n, n in 1..N, and of the
        degeneracies s_i on S_n, n in 0..N-1, level by level."""
        levels = lambda ns: [[(n, i) for i in range(n + 1)] for n in ns]
        return levels(range(1, N + 1)), levels(range(N))

    @classmethod
    def from_maps(cls, dims: Sequence[int], face: Callable[[int, int], Matrix],
                  degen: Callable[[int, int], Matrix]) -> SimplicialVS:
        """The space with d_i = face(n, i) and s_i = degen(n, i) at the
        ``map_indices`` of its truncation; every face is built first."""
        faces, degens = cls.map_indices(len(dims) - 1)
        return cls(tuple(dims), tuple(tuple(face(n, i) for n, i in ni) for ni in faces),
                   tuple(tuple(degen(n, i) for n, i in ni) for ni in degens))

    def _check_identities(self):
        N = self.trunc
        for n in range(2, N + 1):
            for j in range(n + 1):
                for i in range(j):
                    if self.d(n - 1, i) @ self.d(n, j) != self.d(n - 1, j - 1) @ self.d(n, i):
                        raise ValueError(f"face identity fails at level {n}, (i,j)=({i},{j})")
        for n in range(N - 1):
            for i in range(n + 1):
                for j in range(i, n + 1):
                    if self.s(n + 1, j + 1) @ self.s(n, i) != self.s(n + 1, i) @ self.s(n, j):
                        raise ValueError(f"degeneracy identity fails at level {n}, (i,j)=({i},{j})")
        for n in range(N):
            eye = Matrix.eye(self.dims[n])
            for j in range(n + 1):
                for i in range(n + 2):
                    lhs = self.d(n + 1, i) @ self.s(n, j)
                    if i < j:
                        rhs = self.s(n - 1, j - 1) @ self.d(n, i)
                    elif i in (j, j + 1):
                        rhs = eye
                    else:
                        rhs = self.s(n - 1, j) @ self.d(n, i - 1)
                    if lhs != rhs:
                        raise ValueError(f"mixed identity fails at level {n}, (i,j)=({i},{j})")

    @property
    def trunc(self) -> int:
        return len(self.dims) - 1

    def dim(self, n: int) -> int:
        return self.dims[n]

    def d(self, n: int, i: int) -> Matrix:
        return self.faces[n - 1][i]

    def s(self, n: int, i: int) -> Matrix:
        return self.degens[n][i]


# -- nerve ------------------------------------------------------------


def _simplex(L: LinearNCat, v: Sequence, n: int) -> tuple[Vector, list[Vector]]:
    """(base object x, flat 1-cells f_1..f_n) of the nerve n-simplex v, whose
    coordinates are x followed by the kernel parts of the arrows; each arrow
    starts at the target of the one before."""
    n0, n1 = L.dim(0), L.dim(1)
    x, arrows = tuple(v[:n0]), []
    for k in range(n):
        start = L.target(1, arrows[-1]) if arrows else x
        arrows.append(start + tuple(v[n0 + k * n1: n0 + (k + 1) * n1]))
    return x, arrows


def _simplex_coords(L: LinearNCat, x: Vector, arrows: Sequence[Vector]) -> Vector:
    """Coordinates of the nerve simplex (x; arrows), the inverse of ``_simplex``."""
    return tuple(itertools.chain(x, *(f[L.dim(0):] for f in arrows)))


def _nerve_dim(L: LinearNCat, n: int) -> int:
    return L.dim(0) + n * L.dim(1)


def _nerve_face(L: LinearNCat, n: int, i: int) -> Matrix:
    """d_i on the n-simplices of the nerve of L: d_0 drops the first arrow and
    starts at its target, an inner d_i composes arrows i and i+1, and d_n
    drops the last arrow."""
    def act(v):
        x, fs = _simplex(L, v, n)
        if i == 0:
            return _simplex_coords(L, L.target(1, fs[0]), fs[1:])
        if i < n:
            fs[i - 1:i + 1] = [L.compose(1, fs[i - 1], fs[i], 0)]
            return _simplex_coords(L, x, fs)
        return _simplex_coords(L, x, fs[:-1])
    return Matrix.from_action(act, _nerve_dim(L, n), _nerve_dim(L, n - 1))


def nerve(L: LinearNCat, N: int) -> SimplicialVS:
    """Nerve of a linear category (n=1), truncated at level N.

    n-simplices are chains (x; f_1..f_n) of n composable arrows out of x
    (see ``_simplex``).  Faces (``_nerve_face``) and degeneracies are the
    category's own structure maps; s_i inserts the identity arrow of the
    i-th object.
    """
    if L.n != 1:
        raise ValueError("the nerve is taken of a linear category (n = 1)")
    if N < 1:
        raise ValueError("need truncation >= 1")

    def degen(n, i):
        def act(v):
            x, fs = _simplex(L, v, n)
            vertex = L.target(1, fs[i - 1]) if i else x
            return _simplex_coords(L, x, fs[:i] + [L.identity(0, vertex)] + fs[i:])
        return Matrix.from_action(act, _nerve_dim(L, n), _nerve_dim(L, n + 1))

    return SimplicialVS.from_maps([_nerve_dim(L, n) for n in range(N + 1)],
                                  lambda n, i: _nerve_face(L, n, i), degen)


def nerve_map(F: NFunctor, N: int) -> list[Matrix]:
    """Level maps of the simplicial morphism induced by a linear functor: F
    on the base object and on each arrow."""
    src, dst = F.source_cat, F.target_cat
    if src.n != 1 or dst.n != 1:
        raise ValueError("nerve maps need linear categories")
    F0, F1 = F.level_maps

    def act(v, n):
        x, fs = _simplex(src, v, n)
        return _simplex_coords(dst, F0.apply(x), [F1.apply(f) for f in fs])
    return [Matrix.from_action(lambda v, n=n: act(v, n), _nerve_dim(src, n), _nerve_dim(dst, n))
            for n in range(N + 1)]


# -- normalization ----------------------------------------------------


def moore_bases(S: SimplicialVS) -> list[list[Vector]]:
    """Basis of the normalized subspace at each level (kernel of d_1..d_n)."""
    stacks = ([S.d(n, i) for i in range(1, n + 1)] for n in range(1, S.trunc + 1))
    return [Matrix.eye(S.dim(0)).cols()] + [vstack(ds).nullspace() for ds in stacks]


def moore(S: SimplicialVS) -> ChainComplexT:
    """Normalized chain complex: levelwise kernel of d_1..d_n with boundary d_0."""
    return _normalized(S)[1]


def _normalized(S: SimplicialVS) -> tuple[list[list[Vector]], ChainComplexT]:
    """(``moore_bases(S)``, ``moore(S)``), normalizing S once in its lifetime."""
    if S._normal is None:
        bases = moore_bases(S)
        dims = tuple(len(b) for b in bases)
        diffs = []
        for n in range(1, S.trunc + 1):
            Bprev = Matrix.from_cols(bases[n - 1], nrows=S.dim(n - 1))
            X = Bprev.solve_matrix(S.d(n, 0) @ Matrix.from_cols(bases[n], nrows=S.dim(n)))
            if X is None:
                raise ValueError("boundary leaves the normalized subspace")
            diffs.append(X)
        object.__setattr__(S, "_normal", (bases, ChainComplexT(dims, tuple(diffs))))
    return S._normal


def moore_of_nerve_check(L: LinearNCat, S: SimplicialVS) -> bool:
    """Normalizing the nerve S of L recovers the kernel complex (V_0, V_1, l1):
    the normalized 1-simplices are the arrows out of 0, and the boundary
    takes each to its target."""
    n0, n1 = L.dim(0), L.dim(1)
    if L.n != 1 or S.dims[:2] != (n0, n0 + n1):
        raise ValueError("needs a linear category and its nerve")
    bases, C = _normalized(S)
    if C.dims[:2] != (n0, n1) or any(C.dims[2:]):
        return False
    simplices = [_simplex(L, b, 1) for b in bases[1]]
    if any(not vis_zero(x) for x, _ in simplices):
        return False
    B0 = Matrix.from_cols(bases[0], nrows=n0)
    targets = Matrix.from_cols([L.target(1, f) for _, (f,) in simplices], nrows=n0)
    return B0 @ C.diff(1) == targets


# -- tensor products --------------------------------------------------


def tensor_svs(S: SimplicialVS, T: SimplicialVS) -> SimplicialVS:
    if S.trunc != T.trunc:
        raise ValueError("truncation mismatch")
    return SimplicialVS.from_maps([S.dim(n) * T.dim(n) for n in range(S.trunc + 1)],
                                  lambda n, i: S.d(n, i).kron(T.d(n, i)),
                                  lambda n, i: S.s(n, i).kron(T.s(n, i)))


def _degeneracies(S: SimplicialVS, B: Matrix, level: int, indices: Sequence[int]) -> Matrix:
    """s_{indices[-1]} .. s_{indices[0]} applied to the level-``level`` columns of B."""
    for k, i in enumerate(indices):
        B = S.s(level + k, i) @ B
    return B


def _tensor_setup(S: SimplicialVS, T: SimplicialVS):
    """What ez and aw share: S (x) T, the Moore bases of S, T and S (x) T, the
    normalized complex of S (x) T, and moore(S) (x) moore(T) with its layout."""
    ST = tensor_svs(S, T)
    (bS, CS), (bT, CT), (bST, CST) = _normalized(S), _normalized(T), _normalized(ST)
    prod, layout = tensor_complex(CS, CT, trunc=S.trunc)
    return ST, bS, bT, bST, CST, prod, layout


def ez_aw(S: SimplicialVS, T: SimplicialVS) -> tuple[ChainMapT, ChainMapT]:
    """(ez(S, T), aw(S, T)), building the set-up they share once."""
    setup = _tensor_setup(S, T)
    return ez(S, T, setup), aw(S, T, setup)


def ez(S: SimplicialVS, T: SimplicialVS, setup: tuple | None = None) -> ChainMapT:
    """Shuffle map from moore(S) (x) moore(T) to moore(tensor_svs(S, T)).

    On a (x) b of bidegree (p, q) it is the signed sum over (p,q)-shuffles
    (mu, nu) of {0..p+q-1} of s_{nu_q}..s_{nu_1} a (x) s_{mu_p}..s_{mu_1} b,
    so the (p, q) block is the same signed sum of Kronecker products of the
    degeneracy chains applied to the two Moore bases.  ``setup`` is
    ``_tensor_setup(S, T)`` when the caller has built it (``ez_aw``).  The
    map is returned unchecked: ``ChainMapT.is_chain_map`` decides whether it
    is a chain map (the ``ez-demo`` report's check).
    """
    ST, bS, bT, bST, CST, prod, layout = setup or _tensor_setup(S, T)
    maps = []
    for n in range(S.trunc + 1):
        blocks = []
        for (p, q) in layout[n]:
            BS = Matrix.from_cols(bS[p], nrows=S.dim(p))
            BT = Matrix.from_cols(bT[q], nrows=T.dim(q))
            block = Matrix.zeros(ST.dim(n), BS.ncols * BT.ncols)
            for mu in itertools.combinations(range(n), p):
                nu = tuple(k for k in range(n) if k not in mu)
                term = _degeneracies(S, BS, p, nu).kron(_degeneracies(T, BT, q, mu))
                block = block + term if Permutation([k + 1 for k in mu + nu]).sign() > 0 else block - term
            blocks.append(block)
        cols = hstack(blocks) if blocks else Matrix.zeros(ST.dim(n), 0)
        X = Matrix.from_cols(bST[n], nrows=ST.dim(n)).solve_matrix(cols)
        if X is None:
            raise ValueError("shuffle image is not normalized")
        maps.append(X)
    return ChainMapT(prod, CST, tuple(maps))


def _degenerate_basis(S: SimplicialVS, n: int) -> list[Vector]:
    """Basis of the span of degeneracy images inside S_n (n >= 1)."""
    stacked = hstack([S.s(n - 1, i) for i in range(n)])
    _, pivots = stacked.rref()
    return [stacked.col(j) for j in pivots]


def _moore_projection(S: SimplicialVS, bases: list[list[Vector]], n: int) -> Matrix:
    """Projection S_n -> normalized coordinates, along the degenerate part."""
    B = bases[n]
    deg = _degenerate_basis(S, n) if n >= 1 else []
    full = Matrix.from_cols(list(B) + deg, nrows=S.dim(n))
    X = full.solve_matrix(Matrix.eye(S.dim(n)))
    if X is None:
        raise ValueError("normalized plus degenerate parts do not span")
    return Matrix(X.rows[: len(B)], ncols=S.dim(n))


def aw(S: SimplicialVS, T: SimplicialVS, setup: tuple | None = None) -> ChainMapT:
    """Front-face/back-face map from moore(tensor_svs(S,T)) to moore(S) (x) moore(T).

    a (x) b in degree n goes to the sum over p+q=n of
    (d_{p+1}..d_n a) (x) (d_0^p b), each factor projected to the
    normalized subspace along the degenerate one.  ``setup`` is as in ``ez``,
    and the map is returned unchecked, as there.
    """
    ST, bS, bT, bST, CST, prod, layout = setup or _tensor_setup(S, T)
    degrees = {k for blocks in layout for pq in blocks for k in pq}  # each projected once
    PS = {k: _moore_projection(S, bS, k) for k in degrees}
    PT = PS if T is S else {k: _moore_projection(T, bT, k) for k in degrees}
    maps = []
    for n in range(S.trunc + 1):
        BST = Matrix.from_cols(bST[n], nrows=ST.dim(n))
        blocks = []
        for (p, q) in layout[n]:
            front = Matrix.eye(S.dim(n))
            for k in range(n, p, -1):
                front = S.d(k, k) @ front
            back = Matrix.eye(T.dim(n))
            for k in range(n, q, -1):
                back = T.d(k, 0) @ back
            blocks.append((PS[p] @ front).kron(PT[q] @ back))
        big = vstack(blocks) if blocks else Matrix.zeros(prod.dim(n), ST.dim(n))
        maps.append(big @ BST)
    return ChainMapT(CST, prod, tuple(maps))


def aw_after_ez_identity(f: ChainMapT, g: ChainMapT) -> bool:
    """Exact identity of the aw-then-ez round trip on the Moore tensor.

    ``f`` and ``g`` are the built ``ez`` and ``aw`` maps of the same pair.
    """
    for n in range(len(f.maps)):
        M = g.level(n) @ f.level(n)
        if M != Matrix.eye(M.nrows):
            return False
    return True


def aw_ez_homology_check(f: ChainMapT, g: ChainMapT) -> bool:
    """The ez-then-aw round trip induces the identity on homology of f.target,
    in each degree below its top T.  ez o aw - 1 = dh + hd, so on a cycle z,
    ez o aw(z) - z = d(hz) lies in im d_{n+1}; at T that image is cut off by
    the truncation, and ker d_T is no homology group to compare on."""
    C = f.target
    for n in range(C.top_degree):
        induced, eye = induced_on_homology(C, n, f.level(n) @ g.level(n))
        if induced != eye:
            return False
    return True


# -- the composition obstruction --------------------------------------


class ObstructionReport(Frozen):
    __slots__ = _fields = ("compose_tensor_identity_holds", "obstructed", "witness_index",
                           "witness_difference", "kernel_dim", "message")


def _pairing_matrix(L: LinearNCat, tc: TensorCat, n: int) -> Matrix:
    """Matrix of the arrowwise pairing (𝒮 (x) 𝒮)_n -> nerve(L ⊠ L)_n, for
    𝒮 the nerve of L.

    A pair of n-simplices goes to the simplex of the tensor category whose
    base object and arrows are the tensors of theirs.  So its rows are the
    Kronecker squares of the maps that read a simplex's base object and its
    k-th arrow, taken to component coordinates; of an arrow, the nerve keeps
    the kernel part.
    """
    dim = _nerve_dim(L, n)
    simplices = [_simplex(L, e, n) for e in Matrix.eye(dim).cols()]
    base = Matrix.from_cols([x for x, _ in simplices], nrows=L.dim(0))
    arrows = [Matrix.from_cols([fs[k] for _, fs in simplices], nrows=L.level_dim(1))
              for k in range(n)]
    n0 = tc.cat.dim(0)
    return vstack([tc.coords(0, base.kron(base))]
                  + [Matrix(tc.coords(1, f.kron(f)).rows[n0:], ncols=dim ** 2)
                     for f in arrows])


def compose_tensor_identity(L: LinearNCat, tc: TensorCat) -> bool:
    """(v o w) (x) (v' o w') = (v (x) v') o (w (x) w')
    + (v - 1_{tv}) (x) w'_ker + w_ker (x) (v' - 1_{tv'}).

    Both sides are bilinear in the composable pairs (v, w) and (v', w'), and
    each pair is linear in (v, free part of w), so the identity is checked on
    the product of two bases of composable pairs (``composable_codes``).  With
    the basis pairs as the columns of V and W, the composites, deficits
    v - 1_{tv} and kernel parts as those of C, D and K, that product is the
    matrix identity C (x) C = (V (x) V) o (W (x) W) + D (x) K + K (x) D, with one
    raw composition of all the stacked columns."""
    n0, pairs = L.dim(0), []
    for cv, cw in L.composable_codes(1, 0):
        v = L.coded(cv)
        pairs.append((v, L.right_factor(1, v, cw, 0)))
    stack = lambda f: Matrix.from_cols([f(v, w) for v, w in pairs], nrows=L.level_dim(1))
    V, W = stack(lambda v, w: v), stack(lambda v, w: w)
    C = stack(lambda v, w: L.compose(1, v, w, 0))
    D = stack(lambda v, w: vsub(v, L.identity(0, L.target(1, v))))
    K = stack(lambda v, w: (0,) * n0 + w[n0:])
    return C.kron(C) == tc.compose_raw(V.kron(V), W.kron(W), 1, 0) + D.kron(K) + K.kron(D)


def obstruction_demo(L: LinearNCat) -> ObstructionReport:
    """Why the arrowwise pairing into the tensor category is not simplicial.

    Verifies the composition/tensor interchange identity, then compares the
    two ways around the square built from the inner face d_2 at level 3,
    read directly off the nerves of L and of L ⊠ L (neither nerve is built);
    a nonzero difference is the obstruction witness.  Also reports the
    kernel dimension of the level-2 pairing.
    """
    if L.n != 1:
        raise ValueError("needs a linear category")
    tc = tensor_product(L, L)
    identity_ok = compose_tensor_identity(L, tc)
    M2 = _pairing_matrix(L, tc, 2)
    d2 = _nerve_face(L, 3, 2)
    diff = M2 @ d2.kron(d2) - _nerve_face(tc.cat, 3, 2) @ _pairing_matrix(L, tc, 3)
    kernel_dim = M2.ncols - M2.rank()
    j = next((j for j in range(diff.ncols) if not vis_zero(diff.col(j))), None)  # first witness
    witness, wdiff = (None, None) if j is None else (divmod(j, d2.ncols), diff.col(j))
    if L.dim(1) == 0:
        msg = "no obstruction: V1 = 0 makes the pairing simplicial"
        obstructed = False
    elif witness is not None:
        msg = "obstruction: the pairing does not commute with the inner face d_2"
        obstructed = True
    else:
        msg = "no witness found at level 3"
        obstructed = False
    return ObstructionReport(identity_ok, obstructed, witness, wdiff, kernel_dim, msg)
