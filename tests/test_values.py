"""The package's result classes are plain value classes on
``normalform.Record``: equal by class and fields, hashable exactly where
the frozen dataclasses they replaced were, and built positionally or by
keyword with the same defaults."""

from fractions import Fraction

import pytest

from homcheck.algebras import AlgebraSpec, Counterexample
from homcheck.consequence import Certificate, Instance, NotInSpan, SearchBounds
from homcheck.dsl import RawExpr, parse_expr
from homcheck.identities import Identity, Substitution, catalog, identity_from_dsl
from homcheck.normalform import MPoly, Record
from homcheck.verify import Report, Step

XY = (2, (1, 0, 0), (1, 1, 0))  # the monomial x*y


def poly():
    return MPoly({XY: Fraction(1)})


def algebra(name=None):
    one = Fraction(1)
    return AlgebraSpec(2, ("e1", "e2"), {}, ((one, 0), (0, one)), name)


# class -> a function building a fresh instance from fresh arguments, and
# whether instances are hashable; the built instances compare equal
EXAMPLES = {
    RawExpr: (lambda: RawExpr(((Fraction(1), XY),), ("x", "y")), True),
    Identity: (lambda: Identity(("x", "y"), poly(), "i"), True),
    Substitution: (lambda: Substitution(((1, 0, 0),), ("x",)), True),
    SearchBounds: (lambda: SearchBounds(2), True),
    Instance: (lambda: Instance("ax", ("x",), Substitution(((1, 0, 0),), ("x",)),
                                Identity(("x", "y"), poly())), True),
    NotInSpan: (lambda: NotInSpan(poly(), 1, ("ax",)), True),
    Certificate: (lambda: Certificate(Identity(("x", "y"), poly()), []), False),
    AlgebraSpec: (algebra, False),
    # frozen, but its residual is a dict, so hashing raises as it did
    Counterexample: (lambda: Counterexample(("x",), (1,), {0: Fraction(1)}), False),
    Step: (lambda: Step(1, "t", True), False),
    Report: (lambda: Report([]), False),
}


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda c: c.__name__)
def test_equality_is_by_class_and_fields(cls):
    make, _ = EXAMPLES[cls]
    a, b = make(), make()
    assert isinstance(a, Record) and a is not b
    assert a == b and not a != b
    # another class with the same fields is never equal
    twin = type("Twin", (cls,), {})
    c = make()
    object.__setattr__(c, "__class__", twin)
    assert a != c and c != a
    assert a != a._values()
    # each field takes part
    for field in cls._fields:
        d = make()
        object.__setattr__(d, field, object())
        assert a != d


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda c: c.__name__)
def test_fields_are_the_constructor_parameters(cls):
    # a field set in __init__ but missing from _fields would drop out of
    # equality, hash and repr
    code = cls.__init__.__code__
    assert code.co_varnames[1:code.co_argcount] == cls._fields


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda c: c.__name__)
def test_hashability_matches_the_dataclasses(cls):
    make, hashable = EXAMPLES[cls]
    if hashable:
        assert hash(make()) == hash(make())
        assert len({make(), make()}) == 1
    else:
        with pytest.raises(TypeError):
            hash(make())
    frozen = cls not in (Certificate, AlgebraSpec, Step, Report)
    assert (cls.__hash__ is not None) == frozen


def test_keyword_construction_and_defaults():
    assert Identity(vars=("x",), poly=MPoly()).name is None
    assert SearchBounds().max_alpha_power == 3
    assert SearchBounds(max_alpha_power=0) == SearchBounds(0)
    nis = NotInSpan(residual=poly())
    assert (nis.k_saturated, nis.axioms_skipped) == (None, ())
    assert NotInSpan(poly(), axioms_skipped=("a",)) == NotInSpan(poly(), None, ("a",))
    s1, s2 = Step(1, "t", True), Step(number=1, title="t", passed=True)
    assert s1 == s2 and (s1.detail, s1.certificates) == ("", [])
    assert s1.certificates is not s2.certificates  # a fresh list each
    assert algebra().name is None
    assert AlgebraSpec(dim=2, basis=("e1", "e2"), product={},
                       twist=algebra().twist, name="n").name == "n"
    assert Counterexample(variables=("x",), tuple_indices=(1,), residual={}) \
        == Counterexample(("x",), (1,), {})
    assert Report(steps=[]).steps == []


def test_search_bounds_refuses_a_negative_bound():
    for bad in (lambda: SearchBounds(-1), lambda: SearchBounds(max_alpha_power=-1)):
        with pytest.raises(ValueError, match="max_alpha_power must be >= 0"):
            bad()


def test_reprs():
    assert repr(catalog("hom_malcev")) == (
        "Identity(hom_malcev, vars=('x', 'y', 'z'), 4 terms)"
    )
    assert repr(identity_from_dsl("x*y")) == "Identity(?, vars=('x', 'y'), 1 terms)"
    assert repr(SearchBounds()) == "SearchBounds(max_alpha_power=3)"
    assert repr(Step(1, "t", True)) == (
        "Step(number=1, title='t', passed=True, detail='', certificates=[])"
    )
    assert repr(parse_expr("x*y")) == (
        "RawExpr(terms=((Fraction(1, 1), (2, (1, 0, 0), (1, 1, 0))),), vars=('x', 'y'))"
    )
