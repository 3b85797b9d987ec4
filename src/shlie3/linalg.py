"""Exact linear algebra over the rationals.

Every rational the package stores is an ``int`` when integral and a
``Fraction`` otherwise: ``rational`` makes one, and ``narrow`` turns a
computed value into one.  Only stored values are narrowed (a ``Matrix``
entry, a ``Cell`` coordinate, a table coefficient, a failure's residual):
``vadd``, ``vsub``, ``dense`` and ``Matrix.apply`` return what the
arithmetic gives, an integral ``Fraction`` for 1/2 + 1/2.  ``int``
arithmetic is exact, and an ``int`` meets a ``Fraction`` as a ``Fraction``,
so on integral data nothing builds a ``Fraction`` and ``fractions`` is
imported only when ``rational`` meets the first value that is not integral.
``Matrix`` stores dense row tuples of such entries.  Products, Kronecker
products and elimination skip zero entries, since the simplicial and tensor
operators are mostly 0/+-1, so on them they run in ``int`` arithmetic.  No
floating point anywhere.

Every multilinear map of the package is evaluated from one sparse table
format: a key tuple of basis indices, one per argument, maps to the value's
nonzero (output index, coefficient) pairs, and a key absent from the table
evaluates to zero.  ``contract`` evaluates a table on arguments given by
their supports, lists of (index, coefficient) pairs, and ``dense`` turns a
sum of such pairs into a coordinate tuple; a table's coefficients are
narrowed.  Because ``int / int`` is a float, the package divides only here,
in ``rational``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

Vector = tuple  # of rationals; a stored one is an int or a non-integral Fraction


def rational(c, d=1):
    """The rational c / d, for an ``int``, a ``Fraction`` or a string c: an
    ``int`` when integral, else a ``Fraction``, the first of which imports
    ``fractions``."""
    if type(c) is type(d) is int and d and not c % d:
        return c // d
    from fractions import Fraction
    return narrow(Fraction(c) if d == 1 else Fraction(c, d))


def narrow(c):
    """The rational c as an ``int`` when it is integral, else unchanged."""
    return c.numerator if c.denominator == 1 else c


def vzero(n: int) -> Vector:
    return (0,) * n


def dense(n: int, pairs: Iterable[tuple]) -> Vector:
    """The length-n coordinate tuple of a sum of (index, coefficient) pairs."""
    out = list(vzero(n))
    for i, v in pairs:
        out[i] = out[i] + v if out[i] else v
    return tuple(out)


def contract(table: dict, *supports: list) -> list:
    """The support of a tabulated map's value on arguments given by their
    supports: these are folded left into (basis key, coefficient) pairs, and
    each key in the table adds its entry times the coefficient."""
    terms = [((), 1)]
    for s in supports:
        terms = [(key + (i,), x if c == 1 else c if x == 1 else c * x)
                 for key, c in terms for i, x in s]
    acc = {}
    for key, c in terms:
        for i, v in table.get(key, ()):
            acc[i] = acc.get(i, 0) + (v if c == 1 else c * v)
    return [(i, v) for i, v in acc.items() if v]


def compose(outer: dict, inner: dict, arg: int = 0, keep: Callable | None = None) -> dict:
    """The table of ``outer`` with ``inner`` substituted into its argument
    ``arg``: on the key k[:arg] + j + k[arg + 1:] of an outer key k and an
    inner key j it adds, for each output (i, c) of j, c times outer's value on
    k with i in position arg.  Only nonzero entries are visited, and only the
    keys that ``keep`` admits (all when None) are formed."""
    by = {}
    for key, pairs in outer.items():
        by.setdefault(key[arg], []).append((key[:arg], key[arg + 1:], pairs))
    acc = {}
    for j, inner_pairs in inner.items():
        for i, c in inner_pairs:
            for pre, post, pairs in by.get(i, ()):
                key = pre + j + post
                if keep is None or keep(key):
                    out = acc.setdefault(key, {})
                    for o, v in pairs:
                        out[o] = out.get(o, 0) + (v if c == 1 else c * v)
    return _table(acc)


def combine(*terms: tuple) -> dict:
    """The table of a linear combination of tables of one arity: a term is
    (coefficient, table) or (coefficient, table, order), the latter standing
    for the map whose value on (a_0, ..) is the table's on (a_order[0], ..)."""
    acc = {}
    for c, table, *order in terms:
        inv = sorted(range(len(order[0])), key=order[0].__getitem__) if order else None
        for key, pairs in table.items():
            out = acc.setdefault(key if inv is None else tuple([key[i] for i in inv]), {})
            for o, v in pairs:
                out[o] = out.get(o, 0) + c * v
    return _table(acc)


def _table(acc: dict) -> dict:
    """The table of key -> {output: coefficient} dicts, without zeros."""
    return {key: value for key, out in acc.items()
            if (value := tuple((i, narrow(v)) for i, v in sorted(out.items()) if v))}


def vadd(a: Sequence, b: Sequence) -> Vector:
    # a zero operand is skipped: most cell components are sparse
    return tuple(x + y if x and y else x or y for x, y in zip(a, b, strict=True))


def vsub(a: Sequence, b: Sequence) -> Vector:
    return tuple(x - y if y else x for x, y in zip(a, b, strict=True))


def vscale(c, a: Sequence) -> Vector:
    c = rational(c)
    return _narrowed([c * x for x in a])


def vis_zero(a: Iterable) -> bool:
    return all(x == 0 for x in a)


class Frozen:
    """Base of the package's immutable value types.

    A subclass declares its fields once, in order, in ``_fields``, and the
    values of trailing optional ones in ``_defaults``.  The constructor binds
    its arguments to the fields like a plain signature, stores them and calls
    ``__post_init__`` to validate or normalize them; any later assignment
    raises.  Equality, hash and repr are over the fields.  These are plain
    classes, not frozen dataclasses, because every CLI call imports them:
    ``dataclasses`` loads ``inspect`` and ``exec``s each class's methods.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values of a call that passes keywords or leaves out
        defaulted fields, with the ``TypeError`` of a plain signature."""
        cls, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls}() takes {len(fields)} arguments but {len(args)} were given")
        defaults = dict(zip(reversed(fields), reversed(self._defaults)))
        values = list(args)
        for name in fields[len(args):]:
            if name not in kwargs and name not in defaults:
                raise TypeError(f"{cls}() missing argument {name!r}")
            values.append(kwargs.pop(name) if name in kwargs else defaults[name])
        for k in kwargs:  # left over: not a field, or a field already given by position
            raise TypeError(f"{cls}() got multiple values for argument {k!r}" if k in fields
                            else f"{cls}() got an unexpected keyword argument {k!r}")
        return values

    def __post_init__(self):
        pass

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, k) for k in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):  # copy, deepcopy and pickle rebuild through the constructor
        return type(self), self._values()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={getattr(self, k)!r}' for k in self._fields)})"


def _narrowed(row: list) -> tuple:
    return tuple([x if type(x) is int else narrow(x) for x in row])


class Matrix(Frozen):
    """Immutable dense rational matrix.

    Every entry is an ``int`` when integral and a ``Fraction`` otherwise: the
    constructor makes each entry once (``rational``), and the kernel's own
    results, already narrowed, skip that pass (``_of``).  Equal entries of
    either type compare and hash equal, so the stored type never changes a
    result.  Only ``rref`` divides, by a pivot other than 1 or -1.
    """

    _fields = ("rows", "ncols")
    __slots__ = (*_fields, "nrows")

    def __init__(self, rows: Iterable[Iterable], ncols: int | None = None):
        rs = tuple(tuple([e if type(e) is int else rational(e) for e in row]) for row in rows)
        if rs:
            ncols = len(rs[0])
            if any(len(r) != ncols for r in rs):
                raise ValueError("ragged rows")
        elif ncols is None:
            ncols = 0
        object.__setattr__(self, "rows", rs)
        object.__setattr__(self, "nrows", len(rs))
        object.__setattr__(self, "ncols", ncols)

    @classmethod
    def _of(cls, rows: tuple, ncols: int) -> "Matrix":
        """The matrix of rows that are tuples of narrowed entries, unchecked."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "nrows", len(rows))
        object.__setattr__(m, "ncols", ncols)
        return m

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(m: int, n: int) -> "Matrix":
        return Matrix._of(((0,) * n,) * m, n)

    @staticmethod
    def eye(n: int) -> "Matrix":
        return Matrix._of(tuple(tuple([1 if i == j else 0 for j in range(n)]) for i in range(n)), n)

    @staticmethod
    def from_cols(cols: Sequence[Sequence], nrows: int | None = None) -> "Matrix":
        if not cols:
            return Matrix([], ncols=0) if nrows is None else Matrix([[] for _ in range(nrows)], ncols=0)
        m = len(cols[0])
        return Matrix([[cols[j][i] for j in range(len(cols))] for i in range(m)],
                      ncols=len(cols))

    @staticmethod
    def from_action(action: Callable[[Vector], Sequence], ncols: int, nrows: int) -> "Matrix":
        """Matrix of a linear map from its action on the unit vectors of Q^ncols."""
        return Matrix.from_cols([action(e) for e in Matrix.eye(ncols).cols()], nrows=nrows)

    # -- basic structure ----------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def cols(self) -> list[Vector]:
        return [self.col(j) for j in range(self.ncols)]

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def __repr__(self) -> str:
        return f"Matrix({[list(map(str, r)) for r in self.rows]})"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Matrix([vadd(a, b) for a, b in zip(self.rows, other.rows)], ncols=self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Matrix([vsub(a, b) for a, b in zip(self.rows, other.rows)], ncols=self.ncols)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = rational(c)
        return Matrix._of(tuple(_narrowed([c * e for e in r]) for r in self.rows), self.ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        n = other.ncols
        support = [[(j, b) for j, b in enumerate(r) if b] for r in other.rows]
        out = []
        for row in self.rows:
            acc = [0] * n
            for a, orow in zip(row, support):
                if a:
                    for j, b in orow:
                        acc[j] += a * b
            out.append(_narrowed(acc))
        return Matrix._of(tuple(out), n)

    def apply(self, v: Sequence) -> Vector:
        if len(v) != self.ncols:
            raise ValueError(f"vector of length {len(v)} against {self.shape}")
        support = [(j, b) for j, b in enumerate(v) if b]
        return tuple(sum((row[j] * b for j, b in support), 0) for row in self.rows)

    def kron(self, other: "Matrix") -> "Matrix":
        n2 = other.ncols
        support = [[(j, b) for j, b in enumerate(r) if b] for r in other.rows]
        out = []
        for r1 in self.rows:
            for r2 in support:
                row = [0] * (self.ncols * n2)
                for i, a in enumerate(r1):
                    if a:
                        for j, b in r2:
                            row[i * n2 + j] = a * b
                out.append(_narrowed(row))
        return Matrix._of(tuple(out), self.ncols * n2)

    # -- elimination --------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and pivot columns."""
        rows = [list(r) for r in self.rows]
        pivots = []
        pr = 0
        for pc in range(self.ncols):
            pivot_row = None
            for r in range(pr, self.nrows):
                if rows[r][pc] != 0:
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
            p = rows[pr][pc]
            if p == -1:
                rows[pr] = [-e for e in rows[pr]]
            elif p != 1:
                rows[pr] = [rational(e, p) if e else 0 for e in rows[pr]]
            support = [(j, b) for j, b in enumerate(rows[pr]) if b]
            for r in range(self.nrows):
                f = rows[r][pc]
                if r != pr and f:
                    row = rows[r]
                    for j, b in support:
                        x = row[j] - f * b
                        row[j] = x if type(x) is int else narrow(x)
            pivots.append(pc)
            pr += 1
            if pr == self.nrows:
                break
        return Matrix._of(tuple(map(tuple, rows)), self.ncols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> list[Vector]:
        """Basis of the right kernel, one vector per free column, deterministic."""
        R, pivots = self.rref()
        pivset = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivset]
        basis = []
        for j in free:
            v = [0] * self.ncols
            v[j] = 1
            for r, pc in enumerate(pivots):
                v[pc] = -R.rows[r][j]
            basis.append(tuple(v))
        return basis

    def solve(self, b: Sequence) -> Vector | None:
        """One solution of self @ x = b, or None if inconsistent."""
        if len(b) != self.nrows:
            raise ValueError("rhs length mismatch")
        X = self.solve_matrix(Matrix.from_cols([b], nrows=self.nrows))
        return None if X is None else X.col(0)

    def solve_matrix(self, B: "Matrix") -> "Matrix | None":
        """X with self @ X = B, or None; one elimination for all columns.

        Column j has the free variables of [self | b_j] set to zero: when
        every column is consistent, the reduced form of [self | B] restricted
        to [self | b_j] is the reduced form of [self | b_j].
        """
        R, pivots = hstack([self, B]).rref()
        if pivots and pivots[-1] >= self.ncols:
            return None
        X = [(0,) * B.ncols] * self.ncols
        for r, pc in enumerate(pivots):
            X[pc] = R.rows[r][self.ncols:]
        return Matrix._of(tuple(X), B.ncols)

    def left_inverse(self) -> "Matrix | None":
        """X with X @ self = I, or None if the columns are dependent."""
        R, pivots = hstack([self, Matrix.eye(self.nrows)]).rref()
        if pivots[:self.ncols] != tuple(range(self.ncols)):
            return None
        return Matrix._of(tuple(r[self.ncols:] for r in R.rows[:self.ncols]), self.nrows)


def hstack(mats: Sequence[Matrix]) -> Matrix:
    mats = [m for m in mats]
    if not mats:
        return Matrix([], ncols=0)
    nrows = mats[0].nrows
    if any(m.nrows != nrows for m in mats):
        raise ValueError("row count mismatch")
    return Matrix._of(tuple(sum((m.rows[i] for m in mats), ()) for i in range(nrows)),
                      sum(m.ncols for m in mats))


def vstack(mats: Sequence[Matrix]) -> Matrix:
    mats = [m for m in mats]
    if not mats:
        return Matrix([], ncols=0)
    ncols = mats[0].ncols
    if any(m.ncols != ncols for m in mats):
        raise ValueError("column count mismatch")
    return Matrix._of(sum((m.rows for m in mats), ()), ncols)


def quotient_basis(sub: Sequence[Vector], space_dim: int) -> list[int]:
    """Indices of standard basis vectors completing `sub` to a basis.

    Returns e_i indices whose classes form a basis of the quotient by span(sub):
    the greedy choice, read off the pivot columns of one reduced form.
    """
    k = len(sub)
    _, pivots = hstack([Matrix.from_cols(sub, nrows=space_dim), Matrix.eye(space_dim)]).rref()
    return [p - k for p in pivots if p >= k]
