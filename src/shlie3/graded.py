"""Graded vector spaces, sign calculus and antisymmetric multilinear maps.

Degrees are small non-negative integers 0..D.  Coefficients are exact
rationals, each an ``int`` when integral (``linalg.rational``).  A map is
evaluated from its table (``MultiMap.table``) in the package's one sparse
format, by ``linalg.contract`` and ``linalg.dense``.

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
from collections.abc import Iterable, Sequence

from .linalg import Frozen, Vector, contract, dense, rational, vadd, vis_zero, vscale, vzero

BasisIndex = tuple[int, int]  # (degree, index within that degree)
Key = tuple[BasisIndex, ...]


class ContradictionError(ValueError):
    """Raised when raw structure constants violate graded antisymmetry."""


class GradedSpace(Frozen):
    """Finite-dimensional N-graded space, degrees 0..D."""

    __slots__ = _fields = ("dims",)

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


class GradedVector(Frozen):
    __slots__ = _fields = ("space", "coords")

    def __post_init__(self):
        if len(self.coords) != len(self.space.dims):
            raise ValueError("coordinate blocks do not match grading")
        coords = tuple(tuple(map(rational, block)) for block in self.coords)
        for d, block in enumerate(coords):
            if len(block) != self.space.dims[d]:
                raise ValueError(f"degree {d} block has wrong length")
        object.__setattr__(self, "coords", coords)

    @staticmethod
    def zero(space: GradedSpace) -> "GradedVector":
        return GradedVector(space, space.zero_coords())

    @staticmethod
    def basis_vector(space: GradedSpace, d: int, i: int) -> "GradedVector":
        return GradedVector.from_support(space, [((d, i), 1)])

    @staticmethod
    def from_component(space: GradedSpace, d: int, block: Sequence) -> "GradedVector":
        coords = [vzero(n) for n in space.dims]
        coords[d] = block
        return GradedVector(space, tuple(coords))

    @staticmethod
    def from_support(space: GradedSpace, pairs: Iterable[tuple]) -> "GradedVector":
        """The sum of these ((degree, index), coefficient) pairs."""
        blocks = [[] for _ in space.dims]
        for (d, i), c in pairs:
            blocks[d].append((i, c))
        return GradedVector(space, tuple(map(dense, space.dims, blocks)))

    def component(self, d: int) -> Vector:
        return self.coords[d]

    def is_zero(self) -> bool:
        return all(vis_zero(b) for b in self.coords)

    def support(self) -> list[tuple]:
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


class Permutation(Frozen):
    """Permutation of {1..n} in one-line image notation."""

    __slots__ = _fields = ("images",)

    def __post_init__(self):
        images = tuple(int(i) for i in self.images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")
        object.__setattr__(self, "images", images)

    @property
    def size(self) -> int:
        return len(self.images)

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
        return koszul_chi(self, (0,) * self.size)


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


def canonicalize(key: Key) -> tuple[Key, int]:
    """Sorted-key representative ckey and the sign with m(key) == sign * m(ckey):
    each inverted pair of ``key`` flips it unless both elements have odd degree
    (``koszul_chi``'s rule), and it is 0 when an even-degree element repeats."""
    chi = 1
    for p, a in enumerate(key):
        for b in key[p + 1:]:
            if a == b and not a[0] & 1:
                return tuple(sorted(key)), 0
            if a > b and not a[0] & b[0] & 1:
                chi = -chi
    return tuple(sorted(key)), chi


class MultiMap(Frozen):
    """Graded antisymmetric k-linear map of fixed weight, as structure constants.

    Coefficients are stored only on canonical keys (basis tuples sorted by
    (degree, index)); evaluation on any permutation picks up the chi sign.
    Entries whose output degree falls outside 0..D do not exist.  The
    constructor decides every rule of an entry: its arity, its basis range,
    its canonical order, the two zero rules (a repeated even-degree element,
    an output degree outside 0..D) and its block length.
    """

    _fields = ("arity", "weight", "space", "coeffs")
    __slots__ = (*_fields, "_table")
    _defaults = (None,)

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be >= 1")
        object.__setattr__(self, "arity", int(self.arity))
        object.__setattr__(self, "weight", int(self.weight))
        dims = self.space.dims
        clean: dict[Key, Vector] = {}
        for key, val in (self.coeffs or {}).items():
            if len(key) != self.arity:
                raise ValueError(f"key {key} has wrong arity {len(key)}, expected {self.arity}")
            for d, i in key:
                if not (0 <= d < len(dims) and 0 <= i < dims[d]):
                    raise ValueError(f"basis element {(d, i)} outside the space")
            ckey, sign = canonicalize(key)
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
            val = tuple(map(rational, val))
            if len(val) != dims[od]:
                raise ValueError(f"value for {key} has wrong length {len(val)}, expected {dims[od]}")
            if not vis_zero(val):
                clean[key] = val
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "_table", None)

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

    def table(self) -> dict[Key, tuple]:
        """The map in the package's sparse table format (see ``linalg``): raw
        basis key -> nonzero (output basis element, coefficient) pairs, built
        on first use with each reordering's chi sign folded in.  An output
        basis element is a (degree, index) pair like a key entry, so a value
        can be fed back in as an argument.  The coefficients are those of
        ``coeffs``, so evaluation on integral data does no Fraction
        arithmetic."""
        if self._table is None:
            table = {}
            for ckey, val in self.coeffs.items():
                od = self.output_degree(ckey)
                pos = tuple(((od, i), c) for i, c in enumerate(val) if c)
                neg = tuple((b, -c) for b, c in pos)
                for key in set(itertools.permutations(ckey)):
                    table[key] = pos if canonicalize(key)[1] > 0 else neg
            object.__setattr__(self, "_table", table)
        return self._table

    def _contract(self, args: Sequence, support) -> list:
        """The value's support on ``args``, each read by ``support`` into
        (basis element, coefficient) pairs, once their number is checked."""
        if len(args) != self.arity:
            raise ValueError(f"arity {self.arity} map applied to {len(args)} arguments")
        return contract(self.table(), *map(support, args))

    def eval_basis(self, key: Key) -> GradedVector:
        return GradedVector.from_support(self.space, self._contract(key, lambda b: ((b, 1),)))

    def eval(self, args: Sequence[GradedVector]) -> GradedVector:
        def support(a: GradedVector):
            if a.space != self.space:
                raise ValueError("argument from a different graded space")
            return a.support()
        return GradedVector.from_support(self.space, self._contract(args, support))

    def eval_blocks(self, args: Sequence[tuple[int, Sequence]]) -> Vector:
        """Value on homogeneous arguments given as (degree, coordinate block)
        pairs: the output block, in degree sum of degrees + weight."""
        pairs = self._contract(args, lambda arg: [((arg[0], i), c) for i, c in enumerate(arg[1]) if c])
        if (od := self.output_degree(args)) is None:
            raise ValueError("output degree outside the grading")
        return dense(self.space.dims[od], ((i, c) for (_, i), c in pairs))

    def as_matrix(self, d: int):
        """Arity-1 maps only: the matrix V_d -> V_{d+weight} (zero if out of range)."""
        from .linalg import Matrix
        if self.arity != 1:
            raise ValueError("as_matrix needs arity 1")
        dims = self.space.dims
        if (od := self.output_degree(((d, 0),))) is None:
            return Matrix.zeros(0, dims[d])
        return Matrix.from_action(lambda e: self.eval_blocks([(d, e)]), dims[d], dims[od])


def build_multimap(arity: int, weight: int, space: GradedSpace,
                   raw: Iterable[tuple[Key, Sequence]]) -> MultiMap:
    """Fold raw (tuple -> output block) entries onto canonical keys into a MultiMap.

    Raw tuples may come in any argument order; each is folded onto its
    canonical representative with its chi sign (``canonicalize``), and two raw
    entries landing on the same canonical key must agree after that.  An
    entry whose sign is 0 keeps its value, and ``MultiMap``, which decides
    every other rule of an entry, refuses it unless it is zero.
    """
    acc: dict[Key, Vector] = {}
    for key, val in raw:
        ckey, sign = canonicalize(tuple((int(d), int(i)) for d, i in key))
        val = vscale(sign or 1, map(rational, val))  # the value on ckey this entry implies
        if acc.setdefault(ckey, val) != val:
            raise ContradictionError(f"contradictory entries on canonical key {ckey}")
    return MultiMap(arity, weight, space, acc)


def check_signatures(space: GradedSpace, maps: Iterable[tuple[str, MultiMap, int, int]]) -> None:
    """Raise ValueError unless each (name, map, arity, weight) is a map on
    ``space`` of that arity and weight, checked in order."""
    for name, m, arity, weight in maps:
        if m.space != space:
            raise ValueError(f"{name} lives on a different space")
        if (m.arity, m.weight) != (arity, weight):
            raise ValueError(f"{name} must have arity {arity} and weight {weight}")
