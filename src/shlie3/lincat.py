"""Strict linear n-categories (n <= 2) in component form.

A category is determined by kernel spaces V_0..V_n and the differential t
restricted to them; level m lives on L_m = V_0 + .. + V_m and the whole
calculus is the component arithmetic

    s(v_0..v_m) = (v_0..v_{m-1})
    t(v_0..v_m) = (v_0..v_{m-1} + t v_m)
    1_(v_0..v_m) = (v_0..v_m, 0)
    (v_0..v_m) o_p (w_0..w_m) = (v_0..v_p, v_{p+1}+w_{p+1}, .., v_m+w_m)

with the last line only defined on p-composable pairs.  With these formulas
each category axiom (globularity, the boundaries and units, associativity,
interchange) is an identity of the components: s is a slice, 1 pads zeros
and o_p adds above p.  The one condition left, t o t = 0, is the d o d = 0
of the complex ``to_chain``, which ``ChainComplexT`` decides when a
``LinearNCat`` is constructed; ``graded.check_signatures`` decides that t
is an arity-1, weight -1 map on the kernel spaces.

Each map is implemented once, on flat coordinates: a level-m cell is a
tuple over L_m in which V_i occupies ``offsets[i]:offsets[i + 1]``
(offsets[i] = dim V_0 + .. + dim V_{i-1}), so s is a slice, 1 pads zeros and
t on level m is the one-argument table ``t_table[m]`` (the identity on
L_{m-1} plus t on V_m), built once per category; the matrices of t and the
lie3 laws read it too.  ``Cell`` is the type that the public cell-valued
functions return; ``flatten`` and ``unflatten`` convert between the two, and
nothing else does.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from .chain import ChainComplexT
from .graded import GradedSpace, MultiMap, build_multimap, check_signatures
from .linalg import Frozen, Matrix, Vector, dense, hstack, rational, vadd, vscale, vzero


class ComposabilityError(ValueError):
    def __init__(self, msg, left=None, right=None):
        super().__init__(msg)
        self.left = left
        self.right = right


class LiftError(ValueError):
    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class Cell(Frozen):
    """m-cell in component form: components[i] is a coordinate vector in V_i,
    of rationals made by ``linalg.rational``."""

    __slots__ = _fields = ("level", "components")

    def __post_init__(self):
        comps = self.components
        if len(comps) != self.level + 1:
            raise ValueError(f"a level-{self.level} cell needs {self.level + 1} components")
        object.__setattr__(self, "components", tuple(tuple(map(rational, b)) for b in comps))

    def __add__(self, other: "Cell") -> "Cell":
        if self.level != other.level:
            raise ValueError("cannot add cells of different level")
        return Cell(self.level, tuple(vadd(a, b) for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "Cell") -> "Cell":
        return self + other.scale(-1)

    def scale(self, c) -> "Cell":
        return Cell(self.level, tuple(vscale(c, b) for b in self.components))


class LinearNCat(Frozen):
    """Linear n-category with V = kernel spaces and t_data the differential."""

    _fields = ("space", "t_data")
    __slots__ = (*_fields, "offsets", "t_table")

    def __post_init__(self):
        check_signatures(self.space, (("t_data", self.t_data, 1, -1),))
        o = (0, *itertools.accumulate(self.space.dims))
        object.__setattr__(self, "offsets", o)
        t = self.flat_table(self.t_data)
        object.__setattr__(self, "t_table", tuple(
            {**{(i,): ((i, 1),) for i in range(o[m])},
             **{k: v for k, v in t.items() if o[m] <= k[0] < o[m + 1]}} for m in range(self.n + 1)))
        to_chain(self)  # ChainComplexT refuses t o t != 0

    @property
    def n(self) -> int:
        return self.space.top_degree

    def dim(self, d: int) -> int:
        return self.space.dims[d]

    def level_dim(self, m: int) -> int:
        return self.offsets[m + 1]

    def flat_table(self, f: MultiMap) -> dict:
        """f's table with each basis element (d, i) written as its flat index offsets[d] + i."""
        o = self.offsets
        return {tuple(o[d] + i for d, i in key): tuple((o[d] + i, c) for (d, i), c in pairs)
                for key, pairs in f.table().items()}

    def _t_block(self, m: int, rows: range, cols: range) -> Matrix:
        """The rows x cols block of the matrix of ``t_table[m]``."""
        T = self.t_table[m]
        return Matrix.from_cols([dense(len(rows), ((i - rows.start, c) for i, c in T.get((j,), ())))
                                 for j in cols], nrows=len(rows))

    def t_matrix(self, d: int) -> Matrix:
        """Matrix of t restricted to V_d, valued in V_{d-1}."""
        o = self.offsets
        return self._t_block(d, range(o[d - 1] if d else 0, o[d]), range(o[d], o[d + 1]))

    # -- cells --------------------------------------------------------

    def spanning_codes(self, m: int) -> list[tuple]:
        """Codes (see ``coded``) of the basis of L_m: one basis vector in one
        component, zero in the others."""
        return [tuple(i if k == d else None for k in range(m + 1))
                for d in range(m + 1) for i in range(self.dim(d))]

    def composable_codes(self, m: int, p: int) -> list[tuple]:
        """A basis of the parameters (a, t) of an m-cell a and the free part t
        of a right factor composable along p-cells, as code pairs: one holds
        a basis code, the other the zero code.

        A p-composable pair is (a, right_factor(m, a, t, p)), with right factor
        1^{m-p}(t^{m-p} a) + t and t zero in components 0..p, so it is linear
        in (a, t).  Hence a law linear in the pair holds iff it holds on this
        basis, and a law bilinear in two pairs iff it holds on the product of
        two such bases.  The pairs with a zero a come first."""
        zero, basis = (None,) * (m + 1), self.spanning_codes(m)
        return ([(zero, c) for c in basis if all(i is None for i in c[:p + 1])]
                + [(c, zero) for c in basis])

    # -- structure maps on flat coordinates (the component formulas) ---

    def source(self, m: int, v: Vector, k: int = 1) -> Vector:
        """s^k of the m-cell v: its first level_dim(m - k) coordinates."""
        if k > m:
            raise ValueError("0-cells have no source")
        return v[:self.offsets[m - k + 1]]

    def target(self, m: int, v: Vector, k: int = 1) -> Vector:
        """t^k of the m-cell v: drop V_m and add t v_m to V_{m-1}, k times."""
        if k > m:
            raise ValueError("0-cells have no target")
        for d in range(m, m - k, -1):  # v is a d-cell
            o, T = self.offsets[d], self.t_table[d]
            out = list(v[:o])
            for j, c in enumerate(v[o:], o):
                if c:
                    for i, x in T.get((j,), ()):
                        out[i] += c * x
            v = tuple(out)
        return v

    def identity(self, m: int, v: Vector, k: int = 1) -> Vector:
        """1^k of the m-cell v: zeros appended for V_{m+1} .. V_{m+k}."""
        if m + k > self.n:
            raise ValueError("no identities above the top level")
        return tuple(v) + (0,) * (self.offsets[m + k + 1] - self.offsets[m + 1])

    def coded(self, code: Sequence[int | None]) -> Vector:
        """The cell of level len(code) - 1 whose component k is basis vector
        code[k] of V_k, or zero where code[k] is None (the witness encoding)."""
        return tuple(int(j == i) for k, i in enumerate(code) for j in range(self.dim(k)))

    def compose(self, m: int, a: Vector, b: Vector, p: int) -> Vector:
        """a o_p b: the components above p are added; raises ComposabilityError
        (with t^{m-p} a and s^{m-p} b) unless the pair is p-composable."""
        if not (0 <= p < m):
            raise ComposabilityError(f"p={p} out of range for level {m}", a, b)
        cut = self.offsets[p + 1]
        if (ta := self.target(m, a, m - p)) != b[:cut]:
            raise ComposabilityError(f"cells are not composable along a {p}-cell", ta, b[:cut])
        return a[:cut] + vadd(a[cut:], b[cut:])

    def right_factor(self, m: int, a: Vector, code: Sequence[int | None], p: int) -> Vector:
        """The p-composable right factor of a whose free part is coded by code:
        1^{m-p}(t^{m-p} a) + coded(code)."""
        k = m - p
        return vadd(self.identity(p, self.target(m, a, k), k), self.coded(code))

    # -- structural matrices (component form) -------------------------

    def s_matrix_level(self, m: int) -> Matrix:
        """The matrix of s from level m to m - 1 (onto level -1, of dimension 0, for m = 0)."""
        return Matrix.from_action(lambda e: self.source(m, e) if m else (), self.level_dim(m),
                                  self.offsets[m])

    def t_matrix_level(self, m: int) -> Matrix:
        return self._t_block(m, range(self.offsets[m]), range(self.offsets[m + 1]))

    def i_matrix_level(self, m: int) -> Matrix:
        return Matrix.from_action(lambda e: self.identity(m, e), self.level_dim(m),
                                  self.level_dim(m + 1))

    def flatten(self, a: Cell) -> Vector:
        return tuple(itertools.chain(*a.components))

    def unflatten(self, m: int, v: Sequence) -> Cell:
        o = self.offsets
        if len(v) != o[m + 1]:
            raise ValueError("vector length does not match level")
        return Cell(m, tuple(v[o[i]:o[i + 1]] for i in range(m + 1)))


# -- functors ---------------------------------------------------------


class NFunctor(Frozen):
    __slots__ = _fields = ("source_cat", "target_cat", "level_maps")

    def apply(self, a: Cell) -> Cell:
        F = self.level_maps[a.level]
        return self.target_cat.unflatten(a.level, F.apply(self.source_cat.flatten(a)))


def lift_functor(src: LinearNCat, dst: LinearNCat,
                 level_maps: Sequence[Matrix]) -> NFunctor:
    """Build a functor from per-level linear maps.

    Checks that sources, targets and identities are respected; composition
    is then preserved and not checked: a o_p b = a + b - 1^k s^k b (k = m - p)
    on a p-composable pair, so a linear map that commutes with s, t and 1
    preserves o_p, and it maps a composable pair to one.
    """
    if src.n != dst.n:
        raise LiftError("category dimensions differ")
    maps = tuple(level_maps)
    if len(maps) != src.n + 1:
        raise LiftError(f"need {src.n + 1} level maps")
    for m, F in enumerate(maps):
        if F.shape != (dst.level_dim(m), src.level_dim(m)):
            raise LiftError(f"level {m} map has shape {F.shape}")
    for m in range(1, src.n + 1):
        if maps[m - 1] @ src.s_matrix_level(m) != dst.s_matrix_level(m) @ maps[m]:
            raise LiftError("source map not respected", witness=m)
        if maps[m - 1] @ src.t_matrix_level(m) != dst.t_matrix_level(m) @ maps[m]:
            raise LiftError("target map not respected", witness=m)
    for m in range(src.n):
        if maps[m + 1] @ src.i_matrix_level(m) != dst.i_matrix_level(m) @ maps[m]:
            raise LiftError("identity map not respected", witness=m)
    return NFunctor(src, dst, maps)


# -- the equivalence with chain complexes -----------------------------


def from_chain(C: ChainComplexT) -> LinearNCat:
    """The category generated by a bounded complex (degrees 0..2 supported)."""
    if C.top_degree > 2:
        raise ValueError("only complexes concentrated in degrees 0..2")
    space = GradedSpace(tuple(C.dims))
    raw = [(((d, i),), C.diff(d).col(i)) for d in range(1, C.top_degree + 1) for i in range(C.dim(d))]
    return LinearNCat(space, build_multimap(1, -1, space, raw))


def to_chain(L: LinearNCat) -> ChainComplexT:
    return ChainComplexT(L.space.dims, tuple(L.t_matrix(d) for d in range(1, L.n + 1)))


# -- products ---------------------------------------------------------


def cartesian_product(L: LinearNCat, M: LinearNCat) -> LinearNCat:
    if L.n != M.n:
        raise ValueError("category dimensions differ")
    space = GradedSpace(tuple(a + b for a, b in zip(L.space.dims, M.space.dims)))
    raw = [(((d, i),), v + vzero(M.dim(d - 1))) for ((d, i),), v in L.t_data.coeffs.items()]
    raw += [(((d, L.dim(d) + i),), vzero(L.dim(d - 1)) + v) for ((d, i),), v in M.t_data.coeffs.items()]
    return LinearNCat(space, build_multimap(1, -1, space, raw))


class TensorCat(Frozen):
    """Tensor product category with its raw <-> component coordinates.

    Raw level m is L_m (x) M_m, with the Kronecker products of the two
    categories' source and identity maps as its structure maps; the
    component category ``cat`` has V'_m = ker(raw source) at level m.  A
    component m-cell (c_0..c_m) is the raw cell sum_i 1^{m-i} K_i c_i, with
    K_i a basis of V'_i: a linear injection, stored once per level as the
    matrix ``lift[m]`` = [raw identity @ lift[m-1] | K_m] together with its
    left inverse ``lift_inv[m]``.  Changing coordinates is then one matrix
    application each way, with exact span membership checked on the way in.
    """

    __slots__ = _fields = ("left", "right", "cat", "lift", "lift_inv")

    def raw_dim(self, m: int) -> int:
        return self.left.level_dim(m) * self.right.level_dim(m)

    def coords(self, m: int, raw: Matrix) -> Matrix:
        """Flat component coordinates of the raw level-m columns of ``raw``."""
        X = self.lift_inv[m] @ raw
        if self.lift[m] @ X != raw:
            raise ValueError("raw vector is not in the component span")
        return X

    def raw_to_cell(self, m: int, raw: Sequence) -> Cell:
        """Kernel components of a raw cell."""
        X = self.coords(m, Matrix.from_cols([tuple(raw)], nrows=self.raw_dim(m)))
        return self.cat.unflatten(m, X.col(0))

    def cell_to_raw(self, a: Cell) -> Vector:
        return self.lift[a.level].apply(self.cat.flatten(a))

    def compose_raw(self, U: Matrix, W: Matrix, m: int, p: int) -> Matrix:
        """The composites u o_p w of the raw m-cells in the columns of U and
        W, column by column, through the component category."""
        cat = self.cat
        comps = [cat.compose(m, u, w, p) for u, w in zip(self.coords(m, U).cols(),
                                                          self.coords(m, W).cols())]
        return self.lift[m] @ Matrix.from_cols(comps, nrows=cat.level_dim(m))


def tensor_product(L: LinearNCat, M: LinearNCat) -> TensorCat:
    if L.n != M.n:
        raise ValueError("category dimensions differ")
    n = L.n
    raw_s = [L.s_matrix_level(m).kron(M.s_matrix_level(m)) for m in range(n + 1)]
    mats = [Matrix.from_cols(S.nullspace(), nrows=S.ncols) for S in raw_s]
    lift = mats[:1]
    for m in range(1, n + 1):
        raw_i = L.i_matrix_level(m - 1).kron(M.i_matrix_level(m - 1))
        lift.append(hstack([raw_i @ lift[-1], mats[m]]))
    space = GradedSpace(tuple(B.ncols for B in mats))
    raw = []
    for d in range(1, n + 1):
        T = L.t_matrix_level(d).kron(M.t_matrix_level(d))
        X = mats[d - 1].solve_matrix(T @ mats[d])
        if X is None:
            raise ValueError("target leaves the kernel span")
        raw.extend((((d, i),), X.col(i)) for i in range(X.ncols))
    cat = LinearNCat(space, build_multimap(1, -1, space, raw))
    return TensorCat(L, M, cat, tuple(lift), tuple(B.left_inverse() for B in lift))
