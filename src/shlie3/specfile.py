"""JSON data files for algebras, complexes and simplicial spaces.

The format is UTF-8 JSON with top-level keys ``kind``, ``dims``, ``maps``
and optional ``metadata``.  Rationals are written as strings "p" or "p/q"
so that parsing is exact.  Canonical rendering sorts keys and entries, so
parse and render are mutually inverse on canonical files; ``dumps`` writes it.
"""

from __future__ import annotations  # the kinds' types, in annotations, are imported where used

from types import SimpleNamespace

from .linalg import Frozen, Matrix, rational

KINDS = ("linfinity", "lie3", "chain", "simplicial")
# the k-th map of a three-term kind has arity k and weight k - 2
MAP_KEYS = {
    "linfinity": ("l1", "l2", "l3", "l4"),
    "lie3": ("l1", "bracket", "J", "mu"),
}


class SpecError(ValueError):
    """Parse or validation failure, annotated with the JSON path."""

    def __init__(self, msg: str, path: str = "$"):
        super().__init__(f"{path}: {msg}")
        self.path = path


class AlgebraSpecFile(Frozen):
    _fields = ("kind", "dims", "maps", "metadata")
    __slots__ = (*_fields, "_structure")  # what ``build`` made of it
    _defaults = (None,)

    def __post_init__(self):
        if self.metadata is None:
            object.__setattr__(self, "metadata", {})
        object.__setattr__(self, "_structure", None)


def parse_rational(v, path: str):
    """An integer, or a string "p" or "p/q": an optional sign, then ASCII
    digits.  Decimal, exponent, underscore and padded forms are refused.  The
    value is made by ``linalg.rational``: an ``int`` when integral."""
    if isinstance(v, bool):
        raise SpecError("expected a rational, got a boolean", path)
    if isinstance(v, int):
        return int(v)
    if isinstance(v, str):
        try:
            p, slash, q = v.partition("/")  # on ASCII, isdigit is [0-9]+
            if not (v.isascii() and (p[1:] if p[:1] in "+-" else p).isdigit() and (q.isdigit() or not slash)):
                raise ValueError('expected "p" or "p/q"')
            return rational(int(p), int(q or 1))
        except (ValueError, ZeroDivisionError) as e:
            # a long value is echoed as its first 40 characters and its length
            shown = repr(v) if len(v) <= 40 else f"{v[:40]!r}... of {len(v)} characters"
            raise SpecError(f"malformed rational {shown} ({e})", path) from None
    raise SpecError(f"expected a rational string, got {type(v).__name__}", path)


def render_rational(q) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _expect_keys(obj: dict, allowed: tuple[str, ...], required: tuple[str, ...], path: str):
    for k in obj:
        if k not in allowed:
            raise SpecError(f"unknown key {k!r}", path)
    for k in required:
        if k not in obj:
            raise SpecError(f"missing key {k!r}", path)


try:  # json.loads's C scanner and settings (float reads NaN, Infinity and -Infinity as it does)
    from _json import encode_basestring_ascii as _quote, make_scanner
    _scan = make_scanner(SimpleNamespace(strict=True, object_hook=None, object_pairs_hook=None,
                                         parse_float=float, parse_int=int, parse_constant=float))
except ImportError:  # an interpreter without json's C accelerator: its Python scanner
    from json import JSONDecoder, encoder
    _scan, _quote = JSONDecoder().scan_once, encoder.encode_basestring_ascii
_WS = " \t\n\r"  # JSON's whitespace


def _loads(text: str):
    """``json.loads(text)``; ``json`` is imported only where the scan fails, for its error."""
    try:  # whitespace and trailing data as json.loads treats them
        obj, end = _scan(text, len(text) - len(text.lstrip(_WS)))
        if not text[end:].strip(_WS):
            return obj
    except (StopIteration, ValueError, RecursionError):  # no value, a decode error, the digit limit
        pass
    import json
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise SpecError("invalid JSON: nested too deeply") from None
    except ValueError as e:  # an integer literal over the interpreter's digit limit
        raise SpecError(f"invalid JSON: {str(e).split(';')[0]}") from None


def parse_spec(text: str) -> AlgebraSpecFile:
    obj = _loads(text)
    if not isinstance(obj, dict):
        raise SpecError("top level must be an object")
    _expect_keys(obj, ("kind", "dims", "maps", "metadata"), ("kind", "dims", "maps"), "$")
    kind = obj["kind"]
    if kind not in KINDS:
        raise SpecError(f"unknown kind {kind!r}", "$.kind")
    dims = obj["dims"]
    if (not isinstance(dims, list) or not dims
            or any(not isinstance(d, int) or isinstance(d, bool) or d < 0 for d in dims)):
        raise SpecError("dims must be a non-empty list of non-negative integers", "$.dims")
    maps = obj["maps"]
    if not isinstance(maps, dict):
        raise SpecError("maps must be an object", "$.maps")
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict) or any(
            not isinstance(k, str) or not isinstance(v, str) for k, v in metadata.items()):
        raise SpecError("metadata must map strings to strings", "$.metadata")
    spec = AlgebraSpecFile(kind, tuple(dims), maps, dict(metadata))
    # full semantic validation happens in the kind-specific builder
    build(spec)
    return spec


def _parse_entries(raw, dims: tuple[int, ...], path: str) -> list[tuple[tuple, list]]:
    if not isinstance(raw, list):
        raise SpecError("map entries must form a list", path)
    out = []
    for k, entry in enumerate(raw):
        p = f"{path}[{k}]"
        if not isinstance(entry, dict):
            raise SpecError("entry must be an object", p)
        _expect_keys(entry, ("key", "value"), ("key", "value"), p)
        key = entry["key"]
        if not isinstance(key, list) or any(
                not isinstance(e, list) or len(e) != 2
                or any(not isinstance(x, int) or isinstance(x, bool) for x in e)
                for e in key):
            raise SpecError("key must be a list of [degree, index] pairs", f"{p}.key")
        for d, i in key:
            if not (0 <= d < len(dims)) or not (0 <= i < dims[d]):
                raise SpecError(f"basis element [{d}, {i}] outside dims", f"{p}.key")
        value = entry["value"]
        if not isinstance(value, list):
            raise SpecError("value must be a list of rationals", f"{p}.value")
        vals = [parse_rational(v, f"{p}.value[{j}]") for j, v in enumerate(value)]
        out.append((tuple((d, i) for d, i in key), vals))
    return out


def _build_multimap(arity: int, raw, dims: tuple[int, ...], path: str) -> MultiMap:
    from .graded import GradedSpace, build_multimap
    entries = _parse_entries(raw, dims, path)
    for key, val in entries:  # the format's own rule; MultiMap decides the rest
        if val and not 0 <= sum(d for d, _ in key) + arity - 2 < len(dims):
            raise SpecError(f"value length {len(val)}, expected 0", path)
    try:
        return build_multimap(arity, arity - 2, GradedSpace(dims), entries)
    except ValueError as e:  # ContradictionError too
        raise SpecError(str(e), path) from None


def _parse_matrix(raw, nrows: int, ncols: int, path: str) -> Matrix:
    if not isinstance(raw, list) or len(raw) != nrows or any(
            not isinstance(r, list) or len(r) != ncols for r in raw):
        raise SpecError(f"expected a {nrows} x {ncols} matrix", path)
    rows = [[parse_rational(v, f"{path}[{i}][{j}]") for j, v in enumerate(r)]
            for i, r in enumerate(raw)]
    return Matrix(rows, ncols=ncols)


def build(spec: AlgebraSpecFile):
    """The in-memory object a spec file describes, built on first use and kept
    on the spec: a command runs on the object that ``parse_spec`` validated.
    A constructor's refusal is reported at ``$.maps``."""
    if spec._structure is None:
        make = {"linfinity": _build_linfinity, "lie3": _build_lie3,
                "chain": _build_chain, "simplicial": _build_simplicial}[spec.kind]
        try:
            object.__setattr__(spec, "_structure", make(spec))
        except SpecError:
            raise
        except ValueError as e:
            raise SpecError(str(e), "$.maps") from None
    return spec._structure


def _expect_maps(spec: AlgebraSpecFile, names) -> None:
    for k in spec.maps:
        if k not in names:
            raise SpecError(f"unknown map {k!r}", "$.maps")


def _build_three_term(spec: AlgebraSpecFile, make):
    """``make(space, *maps)`` on the maps of a three-term spec, in the order
    of MAP_KEYS[spec.kind]."""
    if len(spec.dims) != 3:
        raise SpecError(f"{spec.kind} data needs dims of length 3", "$.dims")
    names = MAP_KEYS[spec.kind]
    _expect_maps(spec, names)
    from .graded import GradedSpace
    return make(GradedSpace(spec.dims), *(
        _build_multimap(k, spec.maps.get(name, []), spec.dims, f"$.maps.{name}")
        for k, name in enumerate(names, start=1)))


def _build_linfinity(spec: AlgebraSpecFile) -> LInfinityData:
    from .linfinity import LInfinityData
    return _build_three_term(spec, LInfinityData)


def _build_lie3(spec: AlgebraSpecFile) -> Lie3Data:
    from .lie3 import Lie3Data
    from .lincat import LinearNCat
    return _build_three_term(spec, lambda space, l1, bracket, J, mu: Lie3Data(
        LinearNCat(space, l1), bracket, J, mu))


def _build_chain(spec: AlgebraSpecFile) -> ChainComplexT:
    from .chain import ChainComplexT
    dims = spec.dims
    names = [f"d{n}" for n in range(1, len(dims))]
    _expect_maps(spec, names)
    return ChainComplexT(dims, tuple(
        Matrix.zeros(dims[n - 1], dims[n]) if spec.maps.get(name) is None
        else _parse_matrix(spec.maps[name], dims[n - 1], dims[n], f"$.maps.{name}")
        for n, name in enumerate(names, start=1)))


def _build_simplicial(spec: AlgebraSpecFile) -> SimplicialVS:
    from .simplicial import SimplicialVS
    dims = spec.dims
    faces, degens = SimplicialVS.map_indices(len(dims) - 1)
    _expect_maps(spec, {f"{c}:{n}:{i}" for c, levels in (("d", faces), ("s", degens))
                        for level in levels for n, i in level})

    def parse(what: str, key: str, nrows: int, ncols: int) -> Matrix:
        raw = spec.maps.get(key)
        if raw is None:
            raise SpecError(f"missing {what} {key}", "$.maps")
        return _parse_matrix(raw, nrows, ncols, f"$.maps.{key}")
    # every face is parsed before any degeneracy
    return SimplicialVS.from_maps(
        dims, lambda n, i: parse("face", f"d:{n}:{i}", dims[n - 1], dims[n]),
        lambda n, i: parse("degeneracy", f"s:{n}:{i}", dims[n + 1], dims[n]))


# -- rendering --------------------------------------------------------


def _render_multimap(m: MultiMap) -> list[dict]:
    return [{"key": [[d, i] for d, i in key],
             "value": [render_rational(c) for c in val]}
            for key, val in m.entries()]


def render_linfinity(A: LInfinityData, metadata: dict[str, str] | None = None) -> str:
    maps = {name: _render_multimap(getattr(A, name)) for name in MAP_KEYS["linfinity"]}
    return render_spec(AlgebraSpecFile("linfinity", A.space.dims, maps, metadata or {}))


def render_lie3(D: Lie3Data, metadata: dict[str, str] | None = None) -> str:
    maps = dict(zip(MAP_KEYS["lie3"], map(_render_multimap, (
        D.cat.t_data, D.bracket_constants, D.J, D.mu))))
    return render_spec(AlgebraSpecFile("lie3", D.space.dims, maps, metadata or {}))


def render_chain(C: ChainComplexT, metadata: dict[str, str] | None = None) -> str:
    maps = {f"d{n}": [[render_rational(c) for c in row] for row in C.diff(n).rows]
            for n in range(1, C.top_degree + 1)}
    return render_spec(AlgebraSpecFile("chain", C.dims, maps, metadata or {}))


def render_spec(spec: AlgebraSpecFile) -> str:
    obj = {"kind": spec.kind, "dims": list(spec.dims), "maps": spec.maps}
    if spec.metadata:
        obj["metadata"] = spec.metadata
    return dumps(obj) + "\n"


_SCALARS = {str: _quote, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda _: "null"}  # the JSON text of a scalar, by its exact type


def dumps(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, on str-keyed
    dicts, lists, tuples, str, int, bool and None (exact types), in one ``str.join``
    per container; the stdlib encodes with an indent in pure Python.  A key that is
    not a str raises ``TypeError`` (from ``sorted`` or the quoting), as does any other type."""
    if scalar := _SCALARS.get(type(obj)):
        return scalar(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [f"{_quote(k)}: {dumps(v, inner)}" for k, v in sorted(obj.items())]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [scalar(v) if (scalar := _SCALARS.get(type(v))) else dumps(v, inner) for v in obj]
        return f"[{inner}{(',' + inner).join(items)}{indent}]" if items else "[]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
