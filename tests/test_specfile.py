import json
import random
from fractions import Fraction as Q

import pytest

from shlie3.specfile import (SpecError, build, parse_rational, parse_spec, render_chain,
                             render_lie3, render_linfinity, render_rational,
                             render_spec)
from shlie3.lie3 import from_linfinity

from helpers import (abelian_l3_l4, ce_cocycles4, rand_chain3,
                     scaling_brackets, two_term_data)


def test_parse_rational_forms():
    assert parse_rational(3, "$") == Q(3)
    assert parse_rational("-7/2", "$") == Q(-7, 2)
    with pytest.raises(SpecError):
        parse_rational("1/0", "$")
    with pytest.raises(SpecError):
        parse_rational(True, "$")
    with pytest.raises(SpecError):
        parse_rational(1.5, "$")
    assert parse_rational("+5", "$") == Q(5)
    for form in ("1e5", "1.5", " 7 ", "1_000", "1/-2", "\uff11"):  # the last a fullwidth digit
        with pytest.raises(SpecError, match="malformed rational"):
            parse_rational(form, "$")
    assert render_rational(Q(-7, 2)) == "-7/2"
    assert render_rational(Q(4)) == "4"


def test_parse_rejects_malformed_json():
    with pytest.raises(SpecError) as e:
        parse_spec("{not json")
    assert "line 1" in str(e.value)


def test_parse_rejects_unknown_kind_and_keys():
    with pytest.raises(SpecError):
        parse_spec(json.dumps({"kind": "mystery", "dims": [1], "maps": {}}))
    with pytest.raises(SpecError):
        parse_spec(json.dumps({"kind": "chain", "dims": [1], "maps": {}, "extra": 1}))
    with pytest.raises(SpecError):
        parse_spec(json.dumps({"kind": "chain", "dims": [-1], "maps": {}}))


def test_parse_rejects_out_of_range_entry():
    doc = {"kind": "linfinity", "dims": [1, 0, 0],
           "maps": {"l2": [{"key": [[0, 0], [0, 5]], "value": ["1"]}]}}
    with pytest.raises(SpecError) as e:
        parse_spec(json.dumps(doc))
    assert ".key" in str(e.value)


def test_parse_rejects_contradictory_entries():
    doc = {"kind": "linfinity", "dims": [2, 0, 0],
           "maps": {"l2": [{"key": [[0, 0], [0, 1]], "value": ["1", "0"]},
                           {"key": [[0, 1], [0, 0]], "value": ["1", "0"]}]}}
    with pytest.raises(SpecError):
        parse_spec(json.dumps(doc))


def test_linfinity_roundtrip_bytes():
    rng = random.Random(0)
    A = abelian_l3_l4(rng, (3, 1, 1))
    text = render_linfinity(A, {"label": "sample"})
    spec = parse_spec(text)
    B = build(spec)
    assert B.l3 == A.l3 and B.l4 == A.l4
    assert render_spec(spec) == text


def test_lie3_roundtrip():
    D = from_linfinity(two_term_data(scaling_brackets(),
                                     ce_cocycles4(scaling_brackets())[0]))
    text = render_lie3(D)
    spec = parse_spec(text)
    E = build(spec)
    assert E.bracket_constants == D.bracket_constants
    assert E.mu == D.mu
    assert render_lie3(E) == text


def test_chain_roundtrip_and_default_zero_maps():
    rng = random.Random(1)
    C = rand_chain3(rng, (2, 2, 1))
    text = render_chain(C, {"seed": "1"})
    D = build(parse_spec(text))
    assert D.dims == C.dims
    assert all(D.diff(n) == C.diff(n) for n in (1, 2))
    bare = parse_spec(json.dumps({"kind": "chain", "dims": [2, 1], "maps": {}}))
    Z = build(bare)
    assert Z.diff(1).is_zero()


def test_simplicial_specfile_roundtrip():
    from shlie3.lincat import from_chain
    from shlie3.simplicial import nerve
    from shlie3.specfile import AlgebraSpecFile, render_spec as rs
    rng = random.Random(2)
    L = from_chain(rand_chain3(rng, (2, 1, 0)))
    # a one-category nerve written out explicitly as a simplicial spec
    from helpers import rand_chain2
    from shlie3.chain import ChainComplexT
    L1 = from_chain(ChainComplexT((2, 1), (rand_chain2(rng, (2, 1)).diff(1),)))
    S = nerve(L1, 2)
    maps = {}
    for n in range(1, 3):
        for i in range(n + 1):
            maps[f"d:{n}:{i}"] = [[render_rational(c) for c in row]
                                  for row in S.d(n, i).rows]
    for n in range(2):
        for i in range(n + 1):
            maps[f"s:{n}:{i}"] = [[render_rational(c) for c in row]
                                  for row in S.s(n, i).rows]
    spec = parse_spec(rs(AlgebraSpecFile("simplicial", S.dims, maps, {})))
    T = build(spec)
    assert T.dims == S.dims


VALID_DOCS = [
    {"kind": "linfinity", "dims": [1, 1, 1], "maps": {}},
    {"kind": "lie3", "dims": [1, 1, 1], "maps": {}},
    {"kind": "chain", "dims": [1, 1], "maps": {}},
    {"kind": "simplicial", "dims": [1, 1],
     "maps": {"d:1:0": [["1"]], "d:1:1": [["1"]], "s:0:0": [["1"]]}},
]


@pytest.mark.parametrize("doc", VALID_DOCS, ids=lambda doc: doc["kind"])
def test_unknown_map_refused_for_each_kind(doc):
    build(parse_spec(json.dumps(doc)))
    with pytest.raises(SpecError, match=r"^\$\.maps: unknown map 'x'$"):
        parse_spec(json.dumps({**doc, "maps": {**doc["maps"], "x": []}}))


@pytest.mark.parametrize("doc, message", [
    ({"kind": "chain", "dims": [1, 1, 1], "maps": {"d1": [["1"]], "d2": [["1"]]}},
     "d o d != 0 at degree 2"),
    ({"kind": "simplicial", "dims": [1, 1],
      "maps": {"d:1:0": [["1"]], "d:1:1": [["2"]], "s:0:0": [["1"]]}},
     "mixed identity fails at level 0, (i,j)=(1,0)"),
    ({"kind": "lie3", "dims": [2, 1, 1],
      "maps": {"l1": [{"key": [[1, 0]], "value": ["1", "0"]}, {"key": [[2, 0]], "value": ["1"]}]}},
     "d o d != 0 at degree 2")],
    ids=["chain-d-o-d", "simplicial-face-identity", "lie3-t-o-t"])
def test_constructor_refusal_is_reported_at_maps(doc, message):
    """``build`` reports a constructor's ValueError at ``$.maps``."""
    with pytest.raises(SpecError) as e:
        parse_spec(json.dumps(doc))
    assert (e.value.path, str(e.value)) == ("$.maps", f"$.maps: {message}")


def test_validation_is_semantic_not_just_syntactic():
    # simplicial identities enforced at parse time
    doc = {"kind": "simplicial", "dims": [1, 1],
           "maps": {"d:1:0": [["1"]], "d:1:1": [["2"]], "s:0:0": [["1"]]}}
    with pytest.raises(SpecError):
        parse_spec(json.dumps(doc))
