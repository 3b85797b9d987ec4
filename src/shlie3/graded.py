"""Graded vector spaces, sign calculus and antisymmetric multilinear maps.

Degrees are small non-negative integers 0..D.  Coefficients are exact
rationals throughout; a coordinate that cannot be represented exactly is a
bug, not a rounding issue.

Conventions
-----------
A permutation ``sigma`` acts on a tuple by ``sigma.apply(a)[j] = a[sigma(j)]``
(images are 1-based).  For a graded antisymmetric map ``m`` we have

    m(sigma.apply(a)) == chi(sigma, degrees(a)) * m(a)

where ``chi`` is the product of the signature and the Koszul sign: each
inverted pair contributes ``-(-1)**(d_i * d_j)``.  Swapping two equal
arguments therefore forces the value to vanish exactly when their common
degree is even.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

from .linalg import Q, Vector, vadd, vis_zero, vscale, vzero

BasisIndex = tuple[int, int]  # (degree, index within that degree)
Key = tuple[BasisIndex, ...]


class ContradictionError(ValueError):
    """Raised when raw structure constants violate graded antisymmetry."""


@dataclass(frozen=True)
class GradedSpace:
    """Finite-dimensional N-graded space, degrees 0..D."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not self.dims:
            raise ValueError("need at least degree 0")
        if any(d < 0 for d in self.dims):
            raise ValueError("negative dimension")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def basis(self) -> list[BasisIndex]:
        return [(d, i) for d in range(len(self.dims)) for i in range(self.dims[d])]

    def zero_coords(self) -> tuple[Vector, ...]:
        return tuple(vzero(n) for n in self.dims)


@dataclass(frozen=True)
class GradedVector:
    space: GradedSpace
    coords: tuple[Vector, ...]

    def __post_init__(self):
        if len(self.coords) != len(self.space.dims):
            raise ValueError("coordinate blocks do not match grading")
        coords = tuple(tuple(c if type(c) is Q else Q(c) for c in block)
                       for block in self.coords)
        for d, block in enumerate(coords):
            if len(block) != self.space.dims[d]:
                raise ValueError(f"degree {d} block has wrong length")
        object.__setattr__(self, "coords", coords)

    @staticmethod
    def zero(space: GradedSpace) -> "GradedVector":
        return GradedVector(space, space.zero_coords())

    @staticmethod
    def basis_vector(space: GradedSpace, d: int, i: int) -> "GradedVector":
        coords = [list(vzero(n)) for n in space.dims]
        coords[d][i] = Q(1)
        return GradedVector(space, tuple(tuple(b) for b in coords))

    @staticmethod
    def from_component(space: GradedSpace, d: int, block: Sequence) -> "GradedVector":
        coords = [vzero(n) for n in space.dims]
        coords[d] = tuple(Q(c) for c in block)
        return GradedVector(space, tuple(coords))

    @staticmethod
    def from_sparse(space: GradedSpace, d: int, entries: dict[int, Q]) -> "GradedVector":
        """Degree-d vector with these index -> coefficient entries (zero if none is nonzero)."""
        if not any(entries.values()):
            return GradedVector.zero(space)
        return GradedVector.from_component(space, d, [entries.get(i, 0) for i in range(space.dims[d])])

    def component(self, d: int) -> Vector:
        return self.coords[d]

    def is_zero(self) -> bool:
        return all(vis_zero(b) for b in self.coords)

    def support(self) -> list[tuple[BasisIndex, Q]]:
        """Nonzero coordinates as ((degree, index), coefficient) pairs."""
        return [((d, i), c) for d, block in enumerate(self.coords)
                for i, c in enumerate(block) if c]

    def degree(self) -> int | None:
        """Degree of a homogeneous vector; None if mixed or zero."""
        degs = [d for d, b in enumerate(self.coords) if not vis_zero(b)]
        if len(degs) == 1:
            return degs[0]
        return None

    def __add__(self, other: "GradedVector") -> "GradedVector":
        self._check(other)
        return GradedVector(self.space, tuple(vadd(a, b) for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "GradedVector") -> "GradedVector":
        return self + other.scale(-1)

    def __neg__(self) -> "GradedVector":
        return self.scale(-1)

    def scale(self, c) -> "GradedVector":
        return GradedVector(self.space, tuple(vscale(c, b) for b in self.coords))

    def _check(self, other: "GradedVector"):
        if self.space != other.space:
            raise ValueError("graded space mismatch")


@dataclass(frozen=True)
class Permutation:
    """Permutation of {1..n} in one-line image notation."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(int(i) for i in self.images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")
        object.__setattr__(self, "images", images)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, j: int) -> int:
        return self.images[j - 1]

    def apply(self, seq: Sequence) -> tuple:
        if len(seq) != self.size:
            raise ValueError("length mismatch")
        return tuple(seq[i - 1] for i in self.images)

    def compose(self, other: "Permutation") -> "Permutation":
        """Permutation p with p.apply(x) == self.apply(other.apply(x))."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        return Permutation(tuple(other.images[self.images[j] - 1] for j in range(self.size)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for j, i in enumerate(self.images):
            inv[i - 1] = j + 1
        return Permutation(tuple(inv))

    def sign(self) -> int:
        s = 1
        for a, b in itertools.combinations(self.images, 2):
            if a > b:
                s = -s
        return s


def koszul_chi(sigma: Permutation, degrees: Sequence[int]) -> int:
    """Signature times Koszul sign, so that m(sigma.apply(a)) = chi * m(a).

    ``degrees`` are the degrees of the original (unpermuted) arguments.
    """
    if len(degrees) != sigma.size:
        raise ValueError(f"{len(degrees)} degrees for a permutation of size {sigma.size}")
    chi = 1
    imgs = sigma.images
    n = sigma.size
    for p in range(n):
        for q in range(p + 1, n):
            if imgs[p] > imgs[q]:
                chi = -chi  # signature
                if degrees[imgs[p] - 1] % 2 and degrees[imgs[q] - 1] % 2:
                    chi = -chi  # Koszul crossing of two odd elements
    return chi


def enumerate_shuffles(i: int, j: int) -> list[Permutation]:
    """(i,j)-shuffles of {1..i+j}, lexicographic in the first block."""
    if i < 0 or j < 0 or i + j < 1:
        raise ValueError("need i, j >= 0 with i + j >= 1")
    n = i + j
    out = []
    universe = range(1, n + 1)
    for first in itertools.combinations(universe, i):
        rest = tuple(k for k in universe if k not in first)
        out.append(Permutation(first + rest))
    return out


def _canonicalize(key: Key, ) -> tuple[Key, int]:
    """Sorted-key representative and the chi relating key to it.

    Returns (ckey, sign) with  m(key) == sign * m(ckey);  sign == 0 when the
    key contains a repeated even-degree basis element (value forced to zero).
    """
    n = len(key)
    order = sorted(range(n), key=lambda p: key[p])  # stable
    ckey = tuple(key[p] for p in order)
    for a, b in zip(ckey, ckey[1:]):
        if a == b and a[0] % 2 == 0:
            return ckey, 0
    # sigma with key == sigma.apply(ckey):  key[j] = ckey[sigma(j)]
    inv = [0] * n
    for m, p in enumerate(order):
        inv[p] = m + 1
    sigma = Permutation(tuple(inv))
    return ckey, koszul_chi(sigma, [d for d, _ in ckey])


class MultiMap:
    """Graded antisymmetric k-linear map of fixed weight, as structure constants.

    Coefficients are stored only on canonical keys (basis tuples sorted by
    (degree, index)); evaluation on any permutation picks up the chi sign.
    Entries whose output degree falls outside 0..D do not exist.
    """

    __slots__ = ("arity", "weight", "space", "coeffs", "_table")

    def __init__(self, arity: int, weight: int, space: GradedSpace,
                 coeffs: dict[Key, Vector] | None = None):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        object.__setattr__(self, "arity", int(arity))
        object.__setattr__(self, "weight", int(weight))
        object.__setattr__(self, "space", space)
        clean: dict[Key, Vector] = {}
        for key, val in (coeffs or {}).items():
            ckey, sign = _canonicalize(key)
            if ckey != key:
                raise ValueError(f"non-canonical key {key}")
            if sign == 0:
                if not vis_zero(val):
                    raise ContradictionError(f"key {key} is forced to zero")
                continue
            od = self.output_degree(key)
            if od is None:
                if not vis_zero(val):
                    raise ValueError(f"key {key} has output degree outside the grading")
                continue
            val = tuple(Q(c) for c in val)
            if len(val) != space.dims[od]:
                raise ValueError(f"value for {key} has wrong length")
            if not vis_zero(val):
                clean[key] = val
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "_table", None)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("MultiMap is immutable")

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiMap)
                and (self.arity, self.weight, self.space) == (other.arity, other.weight, other.space)
                and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        return f"MultiMap(arity={self.arity}, weight={self.weight}, {len(self.coeffs)} entries)"

    @staticmethod
    def zero(arity: int, weight: int, space: GradedSpace) -> "MultiMap":
        return MultiMap(arity, weight, space)

    def output_degree(self, key: Key) -> int | None:
        od = sum(d for d, _ in key) + self.weight
        if 0 <= od <= self.space.top_degree:
            return od
        return None

    def is_zero(self) -> bool:
        return not self.coeffs

    def entries(self) -> list[tuple[Key, Vector]]:
        return sorted(self.coeffs.items())

    def scale(self, c) -> "MultiMap":
        c = Q(c)
        return MultiMap(self.arity, self.weight, self.space,
                        {k: vscale(c, v) for k, v in self.coeffs.items()})

    def __add__(self, other: "MultiMap") -> "MultiMap":
        if (self.arity, self.weight, self.space) != (other.arity, other.weight, other.space):
            raise ValueError("incompatible maps")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = vadd(out[k], v) if k in out else v
        return MultiMap(self.arity, self.weight, self.space, out)

    def __neg__(self) -> "MultiMap":
        return self.scale(-1)

    # -- evaluation ---------------------------------------------------

    def table(self) -> dict[Key, tuple[int, tuple[tuple[int, Q], ...]]]:
        """Raw basis key -> (output degree, nonzero (index, coefficient) pairs),
        built on first use with each reordering's chi sign folded in; a key
        absent from the table evaluates to zero."""
        if self._table is None:
            table = {}
            for ckey, val in self.coeffs.items():
                od = self.output_degree(ckey)
                pos = tuple((i, c) for i, c in enumerate(val) if c)
                neg = tuple((i, -c) for i, c in pos)
                for key in set(itertools.permutations(ckey)):
                    table[key] = (od, pos if _canonicalize(key)[1] > 0 else neg)
            object.__setattr__(self, "_table", table)
        return self._table

    def eval_basis(self, key: Key) -> GradedVector:
        if len(key) != self.arity:
            raise ValueError(f"arity {self.arity} map applied to {len(key)} arguments")
        od, pairs = self.table().get(tuple(key), (0, ()))
        return GradedVector.from_sparse(self.space, od, dict(pairs))

    def eval(self, args: Sequence[GradedVector]) -> GradedVector:
        if len(args) != self.arity:
            raise ValueError(f"arity {self.arity} map applied to {len(args)} arguments")
        for a in args:
            if a.space != self.space:
                raise ValueError("argument from a different graded space")
        out = [list(vzero(n)) for n in self.space.dims]
        self._accumulate(out, [a.support() for a in args])
        return GradedVector(self.space, tuple(map(tuple, out)))

    def eval_blocks(self, args: Sequence[tuple[int, Sequence[Q]]]) -> Vector:
        """Value on homogeneous arguments given as (degree, coordinate block)
        pairs: the output block, in degree sum of degrees + weight."""
        if len(args) != self.arity:
            raise ValueError(f"arity {self.arity} map applied to {len(args)} arguments")
        od = self.output_degree(args)
        if od is None:
            raise ValueError("output degree outside the grading")
        out = {od: list(vzero(self.space.dims[od]))}
        self._accumulate(out, [[((d, i), c) for i, c in enumerate(block) if c]
                               for d, block in args])
        return tuple(out[od])

    def _accumulate(self, out, supports) -> None:
        """Add the value on the product of the supports' ((degree, index),
        coefficient) lists into out[degree], a mutable coordinate block for
        every degree the value can reach."""
        table = self.table()
        for combo in itertools.product(*supports):
            hit = table.get(tuple(b for b, _ in combo))
            if hit is not None:
                c = prod(coeff for _, coeff in combo)
                block = out[hit[0]]
                for i, v in hit[1]:
                    block[i] += c * v

    def as_matrix(self, d: int):
        """Arity-1 maps only: the matrix V_d -> V_{d+weight} (zero if out of range)."""
        from .linalg import Matrix
        if self.arity != 1:
            raise ValueError("as_matrix needs arity 1")
        od = d + self.weight
        dims = self.space.dims
        if not (0 <= od <= self.space.top_degree):
            return Matrix.zeros(0, dims[d])
        cols = []
        for i in range(dims[d]):
            cols.append(self.eval_basis(((d, i),)).component(od))
        return Matrix.from_cols(cols, nrows=dims[od])


def build_multimap(arity: int, weight: int, space: GradedSpace,
                   raw: Iterable[tuple[Key, Sequence]]) -> MultiMap:
    """Canonicalize raw (tuple -> output block) entries into a MultiMap.

    Raw tuples may come in any argument order; each is folded onto its
    canonical representative with the appropriate chi sign.  Two raw entries
    landing on the same canonical key must agree after sign adjustment.
    """
    acc: dict[Key, Vector] = {}
    for key, val in raw:
        key = tuple((int(d), int(i)) for d, i in key)
        if len(key) != arity:
            raise ValueError(f"key {key} has wrong arity")
        for d, i in key:
            if not (0 <= d <= space.top_degree) or not (0 <= i < space.dims[d]):
                raise ValueError(f"basis element {(d, i)} outside the space")
        od = sum(d for d, _ in key) + weight
        ckey, sign = _canonicalize(key)
        if sign == 0 or not (0 <= od <= space.top_degree):
            if not vis_zero([Q(c) for c in val]):
                raise ContradictionError(f"entry on {key} is forced to zero by antisymmetry")
            continue
        block = tuple(Q(c) for c in val)
        if len(block) != space.dims[od]:
            raise ValueError(f"output block for {key} has wrong length")
        canon_val = vscale(sign, block)  # value on ckey implied by this entry
        if ckey in acc:
            if acc[ckey] != canon_val:
                raise ContradictionError(f"contradictory entries on canonical key {ckey}")
        else:
            acc[ckey] = canon_val
    return MultiMap(arity, weight, space, acc)
