"""The value-type contract of ``linalg.Frozen`` and its subclasses, and the
shared structure-map signature check."""

import copy
import pickle
from fractions import Fraction as Q

import pytest

import shlie3  # noqa: F401  (loads every module, so every subclass is found)
from shlie3.chain import ChainComplexT, ChainMapT
from shlie3.graded import GradedSpace, MultiMap
from shlie3.lie3 import Lie3Data
from shlie3.lincat import LinearNCat
from shlie3.linalg import Frozen, Matrix
from shlie3.linfinity import LInfinityData
from shlie3.report import Failure, Report
from shlie3.specfile import AlgebraSpecFile

from helpers import from_four_cocycle


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _cat():
    return LinearNCat(GradedSpace((1, 1, 1)), MultiMap(1, -1, GradedSpace((1, 1, 1)), {((1, 0),): (1,)}))


def _chain():
    return ChainComplexT((1, 1), (Matrix([[0]]),))


def _failure():
    return Failure("target", ((0, 0), (0, 1)), (Q(1), Q(0)))


# Positional arguments of one valid instance per class.  Each call builds
# fresh objects, so that two calls give equal but not identical fields.
SAMPLES = {
    "Matrix": lambda: ([[1, 2]], 2),
    "GradedSpace": lambda: ((1, 0, 1),),
    "GradedVector": lambda: (GradedSpace((1, 0, 1)), ((Q(1),), (), (Q(2),))),
    "Permutation": lambda: ((2, 1),),
    "MultiMap": lambda: (1, -1, GradedSpace((1, 1)), {((1, 0),): (Q(3),)}),
    "Cell": lambda: (1, ((Q(1),), (Q(0),))),
    "LinearNCat": lambda: (GradedSpace((1, 1, 1)), MultiMap.zero(1, -1, GradedSpace((1, 1, 1)))),
    "Lie3Data": lambda: (_cat(), *(MultiMap.zero(a, w, GradedSpace((1, 1, 1)))
                                   for a, w in ((2, 0), (3, 1), (4, 2)))),
    "NFunctor": lambda: (_cat(), _cat(), (Matrix.eye(1), Matrix.eye(2), Matrix.eye(3))),
    "TensorCat": lambda: (_cat(), _cat(), _cat(), (Matrix.eye(1),), (Matrix.eye(1),)),
    "LInfinityData": lambda: (GradedSpace((1, 0, 1)), *(MultiMap.zero(a, a - 2, GradedSpace((1, 0, 1)))
                                                        for a in range(1, 5))),
    "Failure": lambda: ("target", ((0, 0), (0, 1)), (Q(1), Q(0))),
    "Report": lambda: ("bifunctor", (_failure(),), (((0, 0), (0, 1)),)),
    "ChainComplexT": lambda: ((1, 1), (Matrix([[0]]),)),
    "ChainMapT": lambda: (_chain(), _chain(), (Matrix.eye(1), Matrix.eye(1))),
    "SimplicialVS": lambda: ((1, 1), ((Matrix.eye(1), Matrix.eye(1)),), ((Matrix.eye(1),),)),
    # no ObstructionReport: obstruction_demo returns Reports (README, "API changes: every check
    # returns a Report")
    "AlgebraSpecFile": lambda: ("chain", (1,), {}, {"name": "sample"}),
}

VALUE_TYPES = sorted(_subclasses(Frozen), key=lambda cls: cls.__name__)


def test_every_value_type_has_a_sample():
    assert sorted(cls.__name__ for cls in VALUE_TYPES) == sorted(SAMPLES)


def test_report_has_no_truth_value():
    with pytest.raises(TypeError, match=r"\.passed"):
        bool(Report("bifunctor", (), ()))


def _unhashable(x) -> bool:
    try:
        hash(x)
    except TypeError:
        return True
    return False


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_value_type_contract(cls):
    fields, args = cls._fields, SAMPLES[cls.__name__]()
    obj = cls(*args)

    # keyword construction; equal fields give equal objects and hashes
    by_keyword = cls(**dict(zip(fields, SAMPLES[cls.__name__]())))
    assert obj == by_keyword and not obj != by_keyword
    assert cls(*SAMPLES[cls.__name__]()) == obj
    if any(_unhashable(getattr(obj, f)) for f in fields):  # as for a frozen dataclass
        assert _unhashable(obj)
    else:
        assert hash(obj) == hash(by_keyword)
    assert obj != object()

    # binding errors of a plain signature
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, no_such_field=None)
    with pytest.raises(TypeError):
        cls(*args, **{fields[0]: args[0]})
    with pytest.raises(TypeError):
        cls(**dict(zip(fields[1:], args[1:])))

    # immutable
    with pytest.raises(AttributeError):
        setattr(obj, fields[0], args[0])
    with pytest.raises(AttributeError):
        setattr(obj, "no_such_field", None)
    with pytest.raises(AttributeError):
        delattr(obj, fields[0])

    # copies and pickles rebuild an equal value of the same class
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is cls and clone == obj

    # every field is stored in a slot or in the instance __dict__
    slots = {s for k in cls.__mro__ for s in getattr(k, "__slots__", ())}
    assert all(f in slots for f in fields) or hasattr(obj, "__dict__")

    if cls not in (Matrix, MultiMap):
        body = ", ".join(f"{f}={getattr(obj, f)!r}" for f in fields)
        assert repr(obj) == f"{cls.__name__}({body})"


def test_own_reprs_and_defaults():
    assert repr(Matrix([[1, Q(1, 2)]])) == "Matrix([['1', '1/2']])"
    assert Matrix([], ncols=3) != Matrix([], 0)
    m = MultiMap(1, -1, GradedSpace((1, 1)))
    assert repr(m) == "MultiMap(arity=1, weight=-1, 0 entries)" and m.coeffs == {}
    a, b = AlgebraSpecFile("chain", (1,), {}), AlgebraSpecFile("chain", (1,), {})
    assert a.metadata == {} and a.metadata is not b.metadata


# -- the structure-map signature check --------------------------------

V = GradedSpace((2, 0, 1))
OTHER = GradedSpace((1, 0, 1))


def _lie3(**maps):
    args = {"bracket_constants": MultiMap.zero(2, 0, V), "J": MultiMap.zero(3, 1, V),
            "mu": MultiMap.zero(4, 2, V), **maps}
    return Lie3Data(LinearNCat(V, MultiMap.zero(1, -1, V)), **args)


def _linf(**maps):
    args = {f"l{a}": MultiMap.zero(a, a - 2, V) for a in range(1, 5)}
    return LInfinityData(V, **{**args, **maps})


def _cocycle(**maps):
    args = {"bracket": MultiMap.zero(2, 0, V), "action": MultiMap.zero(2, 0, V),
            "cochain": MultiMap.zero(4, 2, V), **maps}
    return from_four_cocycle(**args)


SIGNATURES = [(_lie3, "bracket_constants", 2, 0), (_lie3, "J", 3, 1), (_lie3, "mu", 4, 2),
              *((_linf, f"l{a}", a, a - 2) for a in range(1, 5)),
              (_cocycle, "action", 2, 0), (_cocycle, "cochain", 4, 2)]


@pytest.mark.parametrize("build,name,arity,weight", SIGNATURES,
                         ids=[f"{b.__name__[1:]}-{n}" for b, n, _, _ in SIGNATURES])
def test_structure_map_signature_messages(build, name, arity, weight):
    build()  # the defaults are valid
    with pytest.raises(ValueError) as e:
        build(**{name: MultiMap.zero(arity, weight, OTHER)})
    assert str(e.value) == f"{name} lives on a different space"
    with pytest.raises(ValueError) as e:
        build(**{name: MultiMap.zero(arity, weight + 1, V)})
    assert str(e.value) == f"{name} must have arity {arity} and weight {weight}"
    with pytest.raises(ValueError) as e:  # the space is checked first
        build(**{name: MultiMap.zero(arity + 1, weight, OTHER)})
    assert str(e.value) == f"{name} lives on a different space"


def test_structure_maps_are_checked_in_order():
    with pytest.raises(ValueError, match="^l2 must have arity 2 and weight 0$"):
        _linf(l2=MultiMap.zero(2, 1, V), l4=MultiMap.zero(4, 2, OTHER))
    with pytest.raises(ValueError, match="^J must have arity 3 and weight 1$"):
        _lie3(J=MultiMap.zero(3, 0, V), mu=MultiMap.zero(4, 2, OTHER))
    with pytest.raises(ValueError, match="^bracket must have arity 2 and weight 0$"):
        _cocycle(bracket=MultiMap.zero(2, 1, V), cochain=MultiMap.zero(4, 2, OTHER))
