"""Strict linear n-categories (n <= 2) in component form.

A category is determined by kernel spaces V_0..V_n and the differential t
restricted to them; level m lives on L_m = V_0 + .. + V_m and the whole
calculus is the component arithmetic

    s(v_0..v_m) = (v_0..v_{m-1})
    t(v_0..v_m) = (v_0..v_{m-1} + t v_m)
    1_(v_0..v_m) = (v_0..v_m, 0)
    (v_0..v_m) o_p (w_0..w_m) = (v_0..v_p, v_{p+1}+w_{p+1}, .., v_m+w_m)

with the last line only defined on p-composable pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .chain import ChainComplexT
from .graded import GradedSpace, MultiMap, build_multimap
from .linalg import Matrix, Q, Vector, hstack, vadd, vis_zero, vscale, vstack, vsub, vzero
from .report import Collector, Report


class ComposabilityError(ValueError):
    def __init__(self, msg, left=None, right=None):
        super().__init__(msg)
        self.left = left
        self.right = right


class LiftError(ValueError):
    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


@dataclass(frozen=True)
class Cell:
    """m-cell in component form: components[i] is a coordinate vector in V_i."""

    level: int
    components: tuple[Vector, ...]

    def __post_init__(self):
        comps = self.components
        if len(comps) != self.level + 1:
            raise ValueError(f"a level-{self.level} cell needs {self.level + 1} components")
        if (type(comps) is not tuple or not all(type(block) is tuple for block in comps)
                or not all(type(c) is Q for block in comps for c in block)):
            object.__setattr__(self, "components", tuple(
                tuple(c if type(c) is Q else Q(c) for c in block) for block in comps))

    def is_zero(self) -> bool:
        return all(vis_zero(b) for b in self.components)

    def __add__(self, other: "Cell") -> "Cell":
        if self.level != other.level:
            raise ValueError("cannot add cells of different level")
        return Cell(self.level, tuple(vadd(a, b) for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "Cell") -> "Cell":
        return self + other.scale(-1)

    def scale(self, c) -> "Cell":
        return Cell(self.level, tuple(vscale(c, b) for b in self.components))


@dataclass(frozen=True)
class LinearNCat:
    """Linear n-category with V = kernel spaces and t_data the differential."""

    space: GradedSpace
    t_data: MultiMap
    _t_matrices: tuple[Matrix, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.t_data.space != self.space or self.t_data.arity != 1 or self.t_data.weight != -1:
            raise ValueError("t_data must be an arity-1 weight -1 map on the same space")
        object.__setattr__(self, "_t_matrices",
                           tuple(self.t_data.as_matrix(d) for d in range(self.n + 1)))
        for m in range(2, self.n + 1):
            if not (self.t_matrix(m - 1) @ self.t_matrix(m)).is_zero():
                raise ValueError("t o t != 0: globular condition violated")

    @property
    def n(self) -> int:
        return self.space.top_degree

    def dim(self, d: int) -> int:
        return self.space.dims[d]

    def level_dim(self, m: int) -> int:
        return sum(self.space.dims[: m + 1])

    def t_matrix(self, d: int) -> Matrix:
        """Matrix of t restricted to V_d, valued in V_{d-1}."""
        return self._t_matrices[d]

    # -- cells --------------------------------------------------------

    def zero_cell(self, m: int) -> Cell:
        return Cell(m, tuple(vzero(self.dim(i)) for i in range(m + 1)))

    def basis_cell(self, m: int, d: int, i: int) -> Cell:
        return self.coded_cell(tuple(i if k == d else None for k in range(m + 1)))

    def coded_cell(self, code: Sequence[int | None]) -> Cell:
        """The cell of level len(code) - 1 whose component k is basis vector
        code[k] of V_k, or zero where code[k] is None (the witness encoding)."""
        return Cell(len(code) - 1, tuple(tuple(Q(int(j == i)) for j in range(self.dim(k)))
                                         for k, i in enumerate(code)))

    def cell_from_v0(self, v0: Sequence[Q], level: int = 0) -> Cell:
        """The iterated identity cell over a 0-cell, at the requested level."""
        comps = [tuple(Q(c) for c in v0)] + [vzero(self.dim(i)) for i in range(1, level + 1)]
        return Cell(level, tuple(comps))

    def spanning_codes(self, m: int, zero_component_mix: bool = True) -> list[tuple]:
        """Codes (see ``coded_cell``) of m-cells whose components are basis
        vectors or zero, all mixes of them or only single basis vectors;
        either family spans L_m."""
        if zero_component_mix:
            return list(itertools.product(*([None, *range(self.dim(k))] for k in range(m + 1))))
        return [tuple(i if k == d else None for k in range(m + 1))
                for d in range(m + 1) for i in range(self.dim(d))]

    def spanning_cells(self, m: int, zero_component_mix: bool = True):
        """The cells of ``spanning_codes``: a spanning family of L_m."""
        return map(self.coded_cell, self.spanning_codes(m, zero_component_mix))

    # -- structure maps (the component formulas) ----------------------

    def source(self, a: Cell) -> Cell:
        if a.level < 1:
            raise ValueError("0-cells have no source")
        return Cell(a.level - 1, a.components[:-1])

    def target(self, a: Cell) -> Cell:
        if a.level < 1:
            raise ValueError("0-cells have no target")
        m = a.level
        moved = vadd(a.components[m - 1], self.t_matrix(m).apply(a.components[m]))
        return Cell(m - 1, a.components[: m - 1] + (moved,))

    def identity(self, a: Cell) -> Cell:
        if a.level >= self.n:
            raise ValueError("no identities above the top level")
        return Cell(a.level + 1, a.components + (vzero(self.dim(a.level + 1)),))

    def source_iter(self, a: Cell, k: int) -> Cell:
        for _ in range(k):
            a = self.source(a)
        return a

    def target_iter(self, a: Cell, k: int) -> Cell:
        for _ in range(k):
            a = self.target(a)
        return a

    def identity_iter(self, a: Cell, k: int) -> Cell:
        for _ in range(k):
            a = self.identity(a)
        return a

    def composable(self, a: Cell, b: Cell, p: int) -> bool:
        if a.level != b.level or not (0 <= p < a.level):
            return False
        k = a.level - p
        return self.target_iter(a, k) == self.source_iter(b, k)

    def compose(self, a: Cell, b: Cell, p: int) -> Cell:
        if a.level != b.level:
            raise ComposabilityError("levels differ", a, b)
        m = a.level
        if not (0 <= p < m):
            raise ComposabilityError(f"p={p} out of range for level {m}", a, b)
        if not self.composable(a, b, p):
            raise ComposabilityError(
                f"cells are not composable along a {p}-cell",
                self.target_iter(a, m - p), self.source_iter(b, m - p))
        comps = list(a.components[: p + 1])
        for i in range(p + 1, m + 1):
            comps.append(vadd(a.components[i], b.components[i]))
        return Cell(m, tuple(comps))

    def pad_composable(self, a: Cell, tail: Sequence[Vector], p: int) -> Cell:
        """The p-composable right factor with the given free components p+1..m."""
        m = a.level
        if len(tail) != m - p:
            raise ValueError("tail must cover components p+1..m")
        forced = self.target_iter(a, m - p)
        comps = list(forced.components) + [tuple(Q(c) for c in t) for t in tail]
        return Cell(m, tuple(comps))

    # -- uniqueness of composition (independent re-derivation) --------

    def compose_via_units(self, a: Cell, b: Cell, p: int) -> Cell:
        """Composition re-derived from linearity and the unit laws only."""
        m = a.level
        if not self.composable(a, b, p):
            raise ComposabilityError("not composable", a, b)
        unit = self.identity_iter(self.target_iter(a, m - p), m - p)
        return a + (b - unit)

    # -- component/raw conversion (the natural isomorphism) -----------

    def assemble(self, v: Cell) -> Cell:
        """Sum of iterated identities over the kernel components of v."""
        m = v.level
        out = self.zero_cell(m)
        for i in range(m + 1):
            ker_cell = Cell(i, tuple(vzero(self.dim(k)) for k in range(i)) + (v.components[i],))
            out = out + self.identity_iter(ker_cell, m - i)
        return out

    def decompose(self, a: Cell) -> Cell:
        """Kernel components of a raw m-cell, computed left to right via s and 1."""
        m = a.level
        comps = []
        rest = a
        for i in range(m + 1):
            ci = self.source_iter(rest, m - i)
            comps.append(ci.components[i])
            ker_cell = Cell(i, tuple(vzero(self.dim(k)) for k in range(i)) + (ci.components[i],))
            rest = rest - self.identity_iter(ker_cell, m - i)
        return Cell(m, tuple(comps))

    # -- structural matrices (component form) -------------------------

    def s_matrix_level(self, m: int) -> Matrix:
        if m < 1:
            return Matrix.zeros(0, self.level_dim(0))
        return hstack([Matrix.eye(self.level_dim(m - 1)),
                       Matrix.zeros(self.level_dim(m - 1), self.dim(m))])

    def t_matrix_level(self, m: int) -> Matrix:
        if m < 1:
            return Matrix.zeros(0, self.level_dim(0))
        pre = self.level_dim(m - 1) - self.dim(m - 1)
        d = self.t_matrix(m)
        right = vstack([Matrix.zeros(pre, self.dim(m)), d]) if pre else d
        return hstack([Matrix.eye(self.level_dim(m - 1)), right])

    def i_matrix_level(self, m: int) -> Matrix:
        return vstack([Matrix.eye(self.level_dim(m)),
                       Matrix.zeros(self.dim(m + 1), self.level_dim(m))])

    def flatten(self, a: Cell) -> Vector:
        out: list[Q] = []
        for b in a.components:
            out.extend(b)
        return tuple(out)

    def unflatten(self, m: int, v: Sequence[Q]) -> Cell:
        comps = []
        pos = 0
        for i in range(m + 1):
            comps.append(v[pos: pos + self.dim(i)])
            pos += self.dim(i)
        if pos != len(v):
            raise ValueError("vector length does not match level")
        return Cell(m, tuple(comps))


# -- functors ---------------------------------------------------------


@dataclass(frozen=True)
class NFunctor:
    source_cat: LinearNCat
    target_cat: LinearNCat
    level_maps: tuple[Matrix, ...]

    def apply(self, a: Cell) -> Cell:
        F = self.level_maps[a.level]
        return self.target_cat.unflatten(a.level, F.apply(self.source_cat.flatten(a)))


def lift_functor(src: LinearNCat, dst: LinearNCat,
                 level_maps: Sequence[Matrix]) -> NFunctor:
    """Build a functor from per-level linear maps.

    Checks that sources, targets and identities are respected; composition
    preservation then holds automatically and is asserted on spanning
    composable pairs rather than trusted.
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
    F = NFunctor(src, dst, maps)
    for m in range(1, src.n + 1):
        for p in range(m):
            for a, b in _spanning_pairs(src, m, p):
                lhs = F.apply(src.compose(a, b, p))
                rhs = dst.compose(F.apply(a), F.apply(b), p)
                if lhs != rhs:  # pragma: no cover - impossible per the unique-composition argument
                    raise AssertionError("functor lift failed to preserve composition")
    return F


# -- axioms -----------------------------------------------------------


def _tails(L: LinearNCat, m: int, p: int) -> list[tuple[tuple, Cell]]:
    """(code, cell) of the m-cells that are basis-or-zero in components
    p+1..m and zero below: free parts spanning the p-composable right factors."""
    return [(c, L.coded_cell(c)) for c in L.spanning_codes(m) if all(i is None for i in c[:p + 1])]


def _spanning_pairs(L: LinearNCat, m: int, p: int):
    tails = _tails(L, m, p)
    for a in L.spanning_cells(m):
        for _, t in tails:
            yield a, L.pad_composable(a, t.components[p + 1:], p)


def check_axioms(L: LinearNCat, compose: Callable[[Cell, Cell, int], Cell] | None = None,
                 max_tails: int | None = None) -> Report:
    """Verify the category axioms on spanning families of basis-derived cells.

    `compose` may override the built-in composition (used to show a corrupted
    table fails); it takes (a, b, p).  A right factor is witnessed by the code
    of its free part t: b = pad_composable(a, t.components[p+1:], p).
    """
    comp = compose or L.compose
    col = Collector("axioms")
    cells = [[(c, L.coded_cell(c)) for c in L.spanning_codes(m)] for m in range(L.n + 1)]

    def tails(m, p):
        ts = _tails(L, m, p)
        return ts[:max_tails] if max_tails else ts

    def right(a, t, p):
        return L.pad_composable(a, t.components[p + 1:], p)

    # globular conditions
    for m in range(2, L.n + 1):
        for c, a in cells[m]:
            w = (c,)
            col.compare("globular ss=st", w, L.source(L.source(a)), L.source(L.target(a)))
            col.compare("globular ts=tt", w, L.target(L.source(a)), L.target(L.target(a)))

    # identities have the right boundaries
    for m in range(L.n):
        for c, a in cells[m]:
            one, w = L.identity(a), (c,)
            col.compare("s(1_a)=a", w, L.source(one), a)
            col.compare("t(1_a)=a", w, L.target(one), a)

    for m in range(1, L.n + 1):
        for p in range(m):
            ts = tails(m, p)
            for ca, a in cells[m]:
                w = (p, ca)
                ua = L.identity_iter(L.source_iter(a, m - p), m - p)
                ub = L.identity_iter(L.target_iter(a, m - p), m - p)
                col.compare("unit 1a=a", w, comp(ua, a, p), a)
                col.compare("unit a1=a", w, comp(a, ub, p), a)
                for cb, tb in ts:
                    b = right(a, tb, p)
                    ab, w = comp(a, b, p), (p, ca, cb)
                    if p == m - 1:
                        col.compare("boundary s(ab)=sa", w, L.source(ab), L.source(a))
                        col.compare("boundary t(ab)=tb", w, L.target(ab), L.target(b))
                    else:
                        col.compare("boundary s(ab)=sa.sb", w, L.source(ab),
                                    comp(L.source(a), L.source(b), p))
                        col.compare("boundary t(ab)=ta.tb", w, L.target(ab),
                                    comp(L.target(a), L.target(b), p))
                    if m < L.n:
                        col.compare("identity-of-composite", w, L.identity(ab),
                                    comp(L.identity(a), L.identity(b), p))
                    for cc, tc in ts:
                        c = right(b, tc, p)
                        col.compare("associativity", (p, ca, cb, cc),
                                    comp(ab, c, p), comp(a, comp(b, c, p), p))

    # interchange
    for m in range(1, L.n + 1):
        for p in range(m):
            for q in range(p):
                for ca, a in cells[m]:
                    for cb, tb in tails(m, p):
                        b = right(a, tb, p)
                        for cc, tc in tails(m, q):
                            c = right(a, tc, q)
                            for cd, td in tails(m, p):
                                d = right(c, td, p)
                                w = (p, q, ca, cb, cc, cd)
                                try:
                                    lhs = comp(comp(a, b, p), comp(c, d, p), q)
                                    rhs = comp(comp(a, c, q), comp(b, d, q), p)
                                except ComposabilityError as e:
                                    col.compare("composable", w, e.left, e.right)
                                    continue
                                col.compare("interchange", w, lhs, rhs)
    return col.report()


# -- the equivalence with chain complexes -----------------------------


def from_chain(C: ChainComplexT) -> LinearNCat:
    """The category generated by a bounded complex (degrees 0..2 supported)."""
    if C.top_degree > 2:
        raise ValueError("only complexes concentrated in degrees 0..2")
    space = GradedSpace(tuple(C.dims))
    raw = []
    for d in range(1, C.top_degree + 1):
        M = C.diff(d)
        for i in range(C.dim(d)):
            raw.append((((d, i),), M.col(i)))
    return LinearNCat(space, build_multimap(1, -1, space, raw))


def to_chain(L: LinearNCat) -> ChainComplexT:
    return ChainComplexT(L.space.dims, tuple(L.t_matrix(d) for d in range(1, L.n + 1)))


# -- products ---------------------------------------------------------


def unit_category(n: int) -> LinearNCat:
    space = GradedSpace((1,) + (0,) * n)
    return LinearNCat(space, MultiMap.zero(1, -1, space))


def cartesian_product(L: LinearNCat, M: LinearNCat) -> LinearNCat:
    if L.n != M.n:
        raise ValueError("category dimensions differ")
    dims = tuple(a + b for a, b in zip(L.space.dims, M.space.dims))
    space = GradedSpace(dims)
    raw = []
    for d in range(1, L.n + 1):
        dl, dm = L.t_matrix(d), M.t_matrix(d)
        for i in range(L.dim(d)):
            col = tuple(dl.col(i)) + vzero(M.dim(d - 1))
            raw.append((((d, i),), col))
        for i in range(M.dim(d)):
            col = vzero(L.dim(d - 1)) + tuple(dm.col(i))
            raw.append((((d, L.dim(d) + i),), col))
    return LinearNCat(space, build_multimap(1, -1, space, raw))


@dataclass(frozen=True)
class TensorCat:
    """Tensor product category with its raw <-> component dictionaries.

    Raw level m is L_m (x) M_m with the Kronecker structural maps
    ``raw_s[m]`` (m <= n) and ``raw_i[m]`` (m < n); the component category is
    carved out by exact kernel computations.  ``kernel_mats[m]`` has a basis
    of ker S_m as columns and ``kernel_inv[m]`` is a left inverse of it,
    factored once.
    """

    left: LinearNCat
    right: LinearNCat
    cat: LinearNCat
    kernel_mats: tuple[Matrix, ...]
    kernel_inv: tuple[Matrix, ...]
    raw_s: tuple[Matrix, ...]
    raw_i: tuple[Matrix, ...]

    @property
    def kernel_bases(self) -> tuple[tuple[Vector, ...], ...]:
        """Basis of ker S_m in raw L_m (x) M_m, per level."""
        return tuple(tuple(B.cols()) for B in self.kernel_mats)

    def raw_dim(self, m: int) -> int:
        return self.left.level_dim(m) * self.right.level_dim(m)

    def raw_to_cell(self, m: int, raw: Sequence[Q]) -> Cell:
        """Kernel components of a raw cell, via the left-to-right projection."""
        raw = tuple(Q(c) for c in raw)
        comps = []
        lifted_sum = tuple(vzero(self.raw_dim(m)))
        for i in range(m + 1):
            u = vsub(raw, lifted_sum)
            for k in range(m, i, -1):
                u = self.raw_s[k].apply(u)
            coords = self.kernel_inv[i].apply(u)
            if self.kernel_mats[i].apply(coords) != u:
                raise ValueError("raw vector is not in the component span")
            comps.append(coords)
            lift = u
            for k in range(i, m):
                lift = self.raw_i[k].apply(lift)
            lifted_sum = vadd(lifted_sum, lift)
        return Cell(m, tuple(comps))

    def cell_to_raw(self, a: Cell) -> Vector:
        m = a.level
        out = tuple(vzero(self.raw_dim(m)))
        for i in range(m + 1):
            lift = self.kernel_mats[i].apply(a.components[i])
            for k in range(i, m):
                lift = self.raw_i[k].apply(lift)
            out = vadd(out, lift)
        return out

    def compose_raw(self, u: Sequence[Q], w: Sequence[Q], m: int, p: int) -> Vector:
        """Composition of raw m-cells through the component category."""
        a = self.raw_to_cell(m, u)
        b = self.raw_to_cell(m, w)
        return self.cell_to_raw(self.cat.compose(a, b, p))


def tensor_product(L: LinearNCat, M: LinearNCat) -> TensorCat:
    if L.n != M.n:
        raise ValueError("category dimensions differ")
    n = L.n
    raw_s = tuple(L.s_matrix_level(m).kron(M.s_matrix_level(m)) for m in range(n + 1))
    raw_i = tuple(L.i_matrix_level(m).kron(M.i_matrix_level(m)) for m in range(n))
    mats = tuple(Matrix.from_cols(S.nullspace(), nrows=S.ncols) for S in raw_s)
    space = GradedSpace(tuple(B.ncols for B in mats))
    raw = []
    for d in range(1, n + 1):
        T = L.t_matrix_level(d).kron(M.t_matrix_level(d))
        X = mats[d - 1].solve_matrix(T @ mats[d])
        if X is None:
            raise ValueError("target leaves the kernel span")
        raw.extend((((d, i),), X.col(i)) for i in range(X.ncols))
    cat = LinearNCat(space, build_multimap(1, -1, space, raw))
    return TensorCat(L, M, cat, mats, tuple(B.left_inverse() for B in mats), raw_s, raw_i)


def product(L: LinearNCat, M: LinearNCat, mode: str) -> LinearNCat:
    if mode == "cartesian":
        return cartesian_product(L, M)
    if mode == "tensor":
        return tensor_product(L, M).cat
    raise ValueError(f"unknown product mode {mode!r}")


def chain_iso_invariants(L: LinearNCat) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Dims and differential ranks; complexes over Q are isomorphic iff equal."""
    C = to_chain(L)
    return C.dims, tuple(C.diff(d).rank() for d in range(1, L.n + 1))
