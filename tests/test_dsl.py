import random

import pytest
from fractions import Fraction

from homcheck import dsl
from homcheck.dsl import (
    ParseError,
    RawExpr,
    format_expr,
    parse_expr,
)
from homcheck.normalform import normalize

from conftest import parse_tagged, random_tagged_expr


# raw terms in the leaf encoding: a variable is the leaf (1, v, p) with
# the twist power p already on it, a product is (n, left, right)
def leaf(v, power=0):
    return (1, v, power)


def prod(left, right):
    return (left[0] + right[0], left, right)


def test_parse_difference():
    e = parse_expr("x*y - y*x")
    assert e.vars == ("x", "y")
    assert e.terms == (
        (Fraction(1), (2, (1, 0, 0), (1, 1, 0))),
        (Fraction(-1), (2, (1, 1, 0), (1, 0, 0))),
    )


def test_parse_jacobian_macro():
    e = parse_expr("J(x,y,z)")
    x, y, z = leaf(0), leaf(1), leaf(2)
    assert e.terms == (
        (Fraction(1), prod(prod(x, y), leaf(2, 1))),
        (Fraction(1), prod(prod(y, z), leaf(0, 1))),
        (Fraction(1), prod(prod(z, x), leaf(1, 1))),
    )


def test_parse_g_macro():
    # G(w,x,y,z) = J(w*x,a(y),a(z)) - a2(x)*J(w,y,z) - J(x,y,z)*a2(w),
    # term for term and in this order, the twists on the leaves
    w, x, y, z = (leaf(v) for v in range(4))

    def jac(t, u, v):
        # J with each argument a single product tree, a() on its leaves
        def a(m):
            return leaf(m[1], m[2] + 1) if m[0] == 1 else prod(a(m[1]), a(m[2]))

        return [prod(prod(t, u), a(v)), prod(prod(u, v), a(t)),
                prod(prod(v, t), a(u))]

    want = (
        [(1, t) for t in jac(prod(w, x), leaf(2, 1), leaf(3, 1))]
        + [(-1, prod(leaf(1, 2), t)) for t in jac(w, y, z)]
        + [(-1, prod(t, leaf(0, 2))) for t in jac(x, y, z)]
    )
    assert parse_expr("G(w,x,y,z)").terms == tuple(want)


NESTED_G = "G(G(w,x,y,z),G(x,y,z,w),G(y,z,w,x),G(z,w,x,y))"


def test_parse_bounds_product_expansion(monkeypatch):
    # each product, sum, J and G may expand to at most 65536 raw terms;
    # the check comes before the expansion is built, so oversized input
    # fails fast
    assert dsl.MAX_RAW_TERMS == 65536
    assert len(parse_expr(NESTED_G)) == 59049
    for text in (
        "*".join(["(w+x)"] * 17),
        f"J({NESTED_G},y,z)",
        f"G({NESTED_G},x,y,z)",
    ):
        with pytest.raises(ParseError, match="expression too large"):
            parse_expr(text)
    # at a bound of 12, each of these is bounded by its own check: J
    # builds 3*|t|*|u|*|v| raw terms, G 9*|w|*|x|*|y|*|z|, a sum the sum
    # of its terms' counts
    monkeypatch.setattr(dsl, "MAX_RAW_TERMS", 12)
    for fits, size, too_large in (
        ("J(w+x,y+z,v)", 12, "J(w+x,y+z,v+w)"),
        ("G(w,x,y,z)", 9, "G(w+x,x,y,z)"),
        (" + ".join(["w"] * 12), 12, " - ".join(["w"] * 13)),
    ):
        assert len(parse_expr(fits)) == size
        with pytest.raises(ParseError, match="expression too large"):
            parse_expr(too_large)


def test_oversized_macro_is_refused_before_its_next_argument(monkeypatch):
    # at a bound of 12, 9 * 2 and 3 * 5 already pass it after the first
    # argument, so the second, which would be a syntax error, is never
    # parsed; 3 * 2 * 2 does not, and the parser reads on
    monkeypatch.setattr(dsl, "MAX_RAW_TERMS", 12)
    for text in ("G(w+x,)", "J(v+w+x+y+z,)"):
        with pytest.raises(ParseError, match="expands to at least"):
            parse_expr(text)
    with pytest.raises(ParseError, match="unexpected"):
        parse_expr("J(w+x,y+z,)")


def test_unknown_function_is_refused_before_its_argument(monkeypatch):
    # the argument alone would pass a bound of 12
    monkeypatch.setattr(dsl, "MAX_RAW_TERMS", 12)
    oversized = " + ".join(["w"] * 13)
    with pytest.raises(ParseError, match="expression too large"):
        parse_expr(f"a({oversized})")
    with pytest.raises(ParseError, match="unknown function 'f'"):
        parse_expr(f"f({oversized})")


def test_call_bound_counts_parameter_degrees(monkeypatch):
    # hom_malcev's body has 6 raw terms, each with x twice, so
    # hom_malcev(w+x,y,z) expands to 6 * 2**2 raw terms
    text = "hom_malcev(w+x,y,z)"
    assert dsl.named("hom_malcev")[1] == (2, 1, 1)
    assert len(parse_expr(text)) == 24
    monkeypatch.setattr(dsl, "MAX_RAW_TERMS", 24)
    assert len(parse_expr(text)) == 24
    monkeypatch.setattr(dsl, "MAX_RAW_TERMS", 23)
    with pytest.raises(ParseError, match="hom_malcev expands to at least 24 raw terms"):
        parse_expr(text)


def test_parse_twist_of_product():
    # the parser puts twists on the leaves: a adds 1 to every leaf power,
    # a2 adds 2, and a call shifts each argument by the power of its
    # parameter's leaf in the body
    e = parse_expr("a(x*y)")
    assert e.terms == ((Fraction(1), (2, (1, 0, 1), (1, 1, 1))),)
    e = parse_expr("a2(x*(y*z))")
    assert e.terms == ((1, prod(leaf(0, 2), prod(leaf(1, 2), leaf(2, 2)))),)
    e = parse_expr("vars x,y,z; J(a(x),y*z,x)")
    assert e.terms[1] == (1, prod(prod(prod(leaf(1), leaf(2)), leaf(0)),
                                  leaf(0, 2)))
    assert e.terms[2] == (1, prod(prod(leaf(0), leaf(0, 1)),
                                  prod(leaf(1, 1), leaf(2, 1))))


def test_macro_expansion_is_syntactic():
    # J(x,x,y) keeps its (x*x)*a(y) entry; it only vanishes on normalization
    e = parse_expr("J(x,x,y)")
    assert len(e.terms) == 3
    assert (Fraction(1), prod(prod(leaf(0), leaf(0)), leaf(1, 1))) in e.terms
    assert len(parse_expr("G(w,x,y,z)").terms) == 9


def test_vars_header_and_sugar():
    e = parse_expr("vars z,y,x; x*y")
    assert e.vars == ("z", "y", "x")
    assert normalize(parse_expr("a2(x) - a(a(x))")).is_zero


@pytest.mark.parametrize(
    "text,msg",
    [
        ("x*(", "end of input"),
        ("J(x,y)", "3 arguments"),
        ("G(x,y,z)", "4 arguments"),
        ("hom_malcev(x,y)", "3 arguments"),
        ("f(x)", "unknown function"),
        ("a(x,y)", "1 argument"),
        ("J(x,y,z) x", "unexpected"),
        ("3", "constant term"),
        ("1/0", "zero denominator"),
        ("vars x; y", "not in vars declaration"),
        ("vars x,y,x; x", "duplicate variable 'x' in vars declaration (line 1, column 10)"),
        ("a*x", "reserved"),
    ],
)
def test_parse_errors_have_position(text, msg):
    with pytest.raises(ParseError) as exc:
        parse_expr(text)
    assert msg in str(exc.value)
    assert "line 1" in str(exc.value)


def test_rationals_and_signs():
    e = parse_expr("1/2*x*y - -3*y*x + 0")
    p = normalize(e)
    ((mono, coeff),) = p.sorted_terms()
    assert coeff == Fraction(-5, 2)  # 1/2*(xy) + 3*(yx) = (1/2 - 3) xy


def test_zero_literal():
    assert parse_expr("0").terms == ()
    assert format_expr(normalize(parse_expr("x - x")), ("x",)) == "0"


def test_format_examples():
    assert format_expr(normalize(parse_expr("x*y")), ("x", "y")) == "x*y"
    raw = RawExpr(
        ((Fraction(-1), prod(prod(leaf(0), leaf(1)), leaf(2, 1))),),
        ("x", "y", "z"),
    )
    assert format_expr(raw) == "-(x*y)*a(z)"
    # a RawExpr prints its twists on the leaves
    assert format_expr(parse_expr("a(x*y)")) == "a(x)*a(y)"


def test_format_jacobian_roundtrip():
    e = parse_expr("J(x,y,z)")
    p = normalize(e)
    text = format_expr(p, e.vars)
    again = parse_expr(f"vars {','.join(e.vars)}; {text}")
    assert normalize(again) == p


def test_roundtrip_property_corpus():
    rng = random.Random(0)
    header = "vars w,x,y,z; "
    for _ in range(1000):
        e = parse_tagged(random_tagged_expr(rng))
        text = format_expr(e)
        reparsed = parse_expr(header + text) if text != "0" else parse_expr("0")
        assert normalize(reparsed) == normalize(e)


def test_has_vars_header_reads_only_the_leading_token():
    assert dsl.has_vars_header("  vars x; x")
    assert not dsl.has_vars_header("vars_x*y")
    assert not dsl.has_vars_header("varsity*b")
    # the rest of the text is not tokenized, so a bad character after the
    # first token is left to the parser
    assert not dsl.has_vars_header("x*y $")


def test_integral_coefficients_are_ints():
    # only a p/q literal makes a Fraction
    e = parse_expr("x*y - 3*J(x,y,z) + a(2*z*x)")
    assert {type(c) for c, _ in e.terms} == {int}
    e = parse_expr("x*y + 1/2*y*x")
    assert [type(c) for c, _ in e.terms] == [int, Fraction]


G_OF_G = "G(G(w,x,y,z),G(x,y,z,w),G(y,z,w,x),G(z,w,x,y))"


@pytest.mark.parametrize("inner", [G_OF_G, "J(x*y,z,w)"])
def test_nested_twists_place_each_leaf_once(monkeypatch, inner):
    # a( passes its power down to the leaves, so twisting adds no
    # shift_power call: only a named call's body leaves shift arguments
    plain = parse_expr(inner)
    calls = []
    shift = dsl.shift_power

    def counted(mono, k):
        calls.append(k)
        return shift(mono, k)

    monkeypatch.setattr(dsl, "shift_power", counted)
    assert parse_expr(inner) == plain
    expected = len(calls)
    calls.clear()
    twisted = parse_expr("a(a(a(a(" + inner + "))))")
    assert len(calls) == expected
    assert twisted.terms[:50] == tuple(
        (c, shift(t, 4)) for c, t in plain.terms[:50]
    )
