"""Bounded chain complexes of rational vector spaces and chain maps."""

from __future__ import annotations

from .linalg import Frozen, Matrix, hstack, quotient_basis, vstack


class ChainComplexT(Frozen):
    """Non-negatively graded complex, degrees 0..N, with d(d(x)) = 0.

    ``diffs[n]`` is the matrix of the differential C_n -> C_{n-1}, for
    n in 1..N.
    """

    __slots__ = _fields = ("dims", "diffs")

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        diffs = tuple(self.diffs)
        if len(diffs) != max(len(self.dims) - 1, 0):
            raise ValueError("need one differential per degree 1..N")
        for n, d in enumerate(diffs, start=1):
            if d.shape != (self.dims[n - 1], self.dims[n]):
                raise ValueError(f"differential {n} has shape {d.shape}, "
                                 f"expected {(self.dims[n - 1], self.dims[n])}")
        object.__setattr__(self, "diffs", diffs)
        for n in range(2, len(self.dims)):
            if not (self.diff(n - 1) @ self.diff(n)).is_zero():
                raise ValueError(f"d o d != 0 at degree {n}")

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def diff(self, n: int) -> Matrix:
        """Differential C_n -> C_{n-1} (the dim C_{n-1} x dim C_n zero matrix
        outside 1..N)."""
        if 1 <= n <= self.top_degree:
            return self.diffs[n - 1]
        return Matrix.zeros(self.dim(n - 1), self.dim(n))

    def dim(self, n: int) -> int:
        return self.dims[n] if 0 <= n <= self.top_degree else 0


class ChainMapT(Frozen):
    """Degreewise matrices commuting with the differentials."""

    __slots__ = _fields = ("source", "target", "maps")

    def __post_init__(self):
        maps = tuple(self.maps)
        N = min(self.source.top_degree, self.target.top_degree)
        if len(maps) != N + 1:
            raise ValueError(f"need {N + 1} level maps")
        for n, f in enumerate(maps):
            if f.shape != (self.target.dim(n), self.source.dim(n)):
                raise ValueError(f"level {n} map has shape {f.shape}")
        object.__setattr__(self, "maps", maps)

    def level(self, n: int) -> Matrix:
        if 0 <= n < len(self.maps):
            return self.maps[n]
        return Matrix.zeros(self.target.dim(n), self.source.dim(n))

    def is_chain_map(self) -> bool:
        for n in range(1, len(self.maps)):
            lhs = self.target.diff(n) @ self.maps[n]
            rhs = self.maps[n - 1] @ self.source.diff(n)
            if lhs != rhs:
                return False
        return True


def tensor_complex(C: ChainComplexT, D: ChainComplexT, trunc: int | None = None) -> tuple[ChainComplexT, list[list[tuple[int, int]]]]:
    """(C (x) D, layout), with the usual sign d(a (x) b) = da (x) b + (-1)^p a (x) db.

    layout[n] lists the (p, q) blocks of degree n in order; within block
    (p, q) coordinates are row-major a-index * dim(D_q) + b-index.
    """
    N = trunc if trunc is not None else C.top_degree + D.top_degree
    layout = [[(p, n - p) for p in range(n + 1)
               if C.dim(p) > 0 and D.dim(n - p) > 0] for n in range(N + 1)]
    dims = [sum(C.dim(p) * D.dim(q) for p, q in layout[n]) for n in range(N + 1)]

    def block(row, col):  # the part of d from block col of degree n to block row of n - 1
        (pr, qr), (p, q) = row, col
        if (pr, qr) == (p - 1, q):
            return C.diff(p).kron(Matrix.eye(D.dim(q)))
        if (pr, qr) == (p, q - 1):
            sign_db = Matrix.eye(C.dim(p)).kron(D.diff(q))
            return -sign_db if p % 2 else sign_db
        return Matrix.zeros(C.dim(pr) * D.dim(qr), C.dim(p) * D.dim(q))

    diffs = [vstack([hstack([block(row, col) for col in layout[n]]) for row in layout[n - 1]])
             if dims[n - 1] and dims[n] else Matrix.zeros(dims[n - 1], dims[n])
             for n in range(1, N + 1)]
    return ChainComplexT(tuple(dims), tuple(diffs)), layout


def homology_data(C: ChainComplexT, n: int):
    """(cycle basis, matrix context) for H_n = ker d_n / im d_{n+1}.

    Returns (reps, ker_basis, im_basis) where reps are cycle vectors whose
    classes form a basis of H_n.
    """
    if C.dim(n) == 0:
        return [], [], []
    ker = C.diff(n).nullspace()
    dnp = C.diff(n + 1)
    im = dnp.cols()
    # coordinates of the image in the kernel basis: they exist as d o d = 0
    if ker:
        X = Matrix.from_cols(ker, nrows=C.dim(n)).solve_matrix(dnp)
        free = quotient_basis(X.cols(), len(ker))
        reps = [ker[i] for i in free]
    else:
        reps = []
    return reps, ker, im


def induced_on_homology(C: ChainComplexT, n: int, f: Matrix) -> tuple[Matrix, Matrix]:
    """(induced matrix, identity of same size) for an endo chain map level f on H_n."""
    reps, ker, im = homology_data(C, n)
    h = len(reps)
    if h == 0:
        return Matrix.zeros(0, 0), Matrix.zeros(0, 0)
    # express f(rep) as combination of reps modulo boundaries
    B = Matrix.from_cols(list(reps) + list(im), nrows=C.dim(n))
    X = B.solve_matrix(f @ Matrix.from_cols(reps, nrows=C.dim(n)))
    if X is None:
        raise ValueError("image of a cycle leaves the cycle space")
    return Matrix(X.rows[:h], ncols=h), Matrix.eye(h)
