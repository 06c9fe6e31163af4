import itertools
import math
import random

import pytest

from homcheck import identities
from homcheck.algebras import check_identity_concrete, load_algebra_file
from homcheck.dsl import MAX_RAW_TERMS, parse_expr
from homcheck.identities import (
    CATALOG_NAMES,
    Identity,
    Substitution,
    catalog,
    drop_unused,
    identity_from_dsl,
    polarize,
    strip_twist,
    substitute,
)
from homcheck.normalform import MPoly, mono_degrees, normalize, poly_combine

from conftest import (
    TaggedExpr,
    mono_to_tagged,
    parse_tagged,
    random_coeff,
    random_monomial,
    random_multilinear,
    random_tagged_expr,
    reference_components,
    reference_grades,
    reference_swap_blocks,
    scaled,
    swapped,
)


def test_catalog_entries():
    assert catalog("hom_jacobi").poly == normalize(parse_expr("J(x,y,z)"))
    assert catalog("lemma_2_4_ii").poly.is_zero
    assert catalog("g_def").poly.is_zero
    assert catalog("identity_1_2").vars == ("w", "x", "y", "z")
    assert catalog("identity_1_2").is_multilinear
    with pytest.raises(KeyError):
        catalog("nope")


def test_malcev_is_untwisted_hom_malcev():
    assert catalog("malcev").poly == strip_twist(catalog("hom_malcev")).poly
    # and it is the classical Malcev identity J(x,y,x*z) - J(x,y,z)*x
    classic = identity_from_dsl(
        "vars x,y,z;"
        " ((x*y)*(x*z) + (y*(x*z))*x + ((x*z)*x)*y)"
        " - ((x*y)*z + (y*z)*x + (z*x)*y)*x"
    )
    assert catalog("malcev").poly == classic.poly


def test_catalog_call_on_its_parameters_is_the_catalog_identity():
    # hom_malcev(x,y,z), identity_1_2(w,x,y,z), ...: the DSL call expands
    # the same body that the catalog normalizes
    for name in CATALOG_NAMES:
        params = ",".join(catalog(name).vars)
        call = identity_from_dsl(f"{name}({params})")
        assert call.vars == catalog(name).vars
        assert call.poly == catalog(name).poly, name


def test_identity_substitution_is_neutral():
    for name in ("hom_jacobi", "hom_malcev", "identity_1_2", "eq_2_2"):
        ident = catalog(name)
        images = tuple((1, i, 0) for i in range(len(ident.vars)))
        sub = Substitution(images, ident.vars)
        assert substitute(ident, sub).poly == ident.poly


def test_specialization_w_equals_y():
    i12 = catalog("identity_1_2")
    sub = Substitution(((1, 1, 0), (1, 0, 0), (1, 1, 0), (1, 2, 0)), ("x", "y", "z"))
    e27 = substitute(i12, sub)
    display = identity_from_dsl(
        "vars x,y,z; J(y*x,a(y),a(z)) - a2(y)*J(y,z,x) + 2*J(a(y),a(x),y*z)"
    )
    assert e27.poly == display.poly
    # permuting z with x and doubling gives the next displayed step
    assert e27.vars == ("x", "y", "z")
    e28 = identity_from_dsl(
        "vars x,y,z;"
        " 4*J(a(y),a(z),y*x) + 2*a2(y)*J(y,z,x) + 2*J(y*z,a(y),a(x))"
    )
    assert e28.poly == scaled(swapped(e27, 0, 2).poly, 2)


def test_substitute_requires_all_variables():
    ident = catalog("hom_jacobi")
    with pytest.raises(ValueError):
        substitute(ident, Substitution(((1, 0, 0), (1, 1, 0)), ("x", "y")))


def test_jacobian_skew_symmetry_suite():
    j = catalog("hom_jacobi")
    for perm in itertools.permutations(range(3)):
        sign = 1
        for a in range(3):
            for b in range(a + 1, 3):
                if perm[a] > perm[b]:
                    sign = -sign
        image = substitute(j, Substitution(tuple((1, p, 0) for p in perm), j.vars))
        assert image.poly == scaled(j.poly, sign)


def _bilinear_component(poly, nvars, idx_a, idx_b):
    keep = {
        m: c
        for m, c in poly.coeffs.items()
        if mono_degrees(m, nvars)[idx_a] == 1 and mono_degrees(m, nvars)[idx_b] == 1
    }
    return MPoly(keep)


def test_polarize_hom_malcev_against_expansion_oracle():
    # oracle: substitute x -> xa + xb at the raw level and keep the
    # component bilinear in xa, xb
    expanded = parse_expr(
        "vars y,z,xa,xb;"
        " J(a(xa)+a(xb), a(y), (xa+xb)*z) - J(xa+xb,y,z)*(a2(xa)+a2(xb))"
    )
    oracle = _bilinear_component(normalize(expanded), 4, 2, 3)
    pol = polarize(catalog("hom_malcev"))
    assert pol.vars == ("y", "z", "x#1", "x#2")
    assert pol.poly == oracle
    assert pol.is_multilinear


def test_polarize_malcev_matches_untwisted_oracle():
    expanded = parse_expr(
        "vars y,z,xa,xb;"
        " ((xa+xb)*y)*((xa+xb)*z) + (y*((xa+xb)*z))*(xa+xb)"
        " + (((xa+xb)*z)*(xa+xb))*y"
        " - (((xa+xb)*y)*z + (y*z)*(xa+xb) + (z*(xa+xb))*y)*(xa+xb)"
    )
    oracle = _bilinear_component(normalize(expanded), 4, 2, 3)
    assert polarize(catalog("malcev")).poly == oracle


def test_polarize_multilinear_is_identity():
    i12 = catalog("identity_1_2")
    assert polarize(i12) is i12


def test_polarize_rejects_non_homogeneous():
    bad = identity_from_dsl("vars x,y; x*y + x*a(x)")
    with pytest.raises(ValueError):
        polarize(bad)


def test_polarize_keeps_declared_variables():
    # check names every declared variable in a counterexample
    ident = identity_from_dsl("vars x,y,z,v; J(x,y,z)*x")
    pol = polarize(ident)
    assert pol.vars == ("y", "z", "v", "x#1", "x#2")
    assert pol.degrees == (1, 1, 0, 1, 1)
    dropped = drop_unused(pol)
    assert dropped.vars == ("y", "z", "x#1", "x#2")
    assert dropped.is_multilinear
    assert dropped.poly == polarize(identity_from_dsl("J(x,y,z)*x")).poly


def test_drop_unused():
    i12 = catalog("identity_1_2")
    assert drop_unused(i12) is i12
    # a vanishing identity keeps no variable
    zero = drop_unused(catalog("lemma_2_4_ii"))
    assert zero.vars == () and zero.poly.is_zero and zero.is_multilinear
    # the kept variables are renumbered in their declared order
    ident = drop_unused(identity_from_dsl("vars v,y,u,x; a(x)*y"))
    assert ident.vars == ("y", "x")
    assert ident.poly == identity_from_dsl("vars y,x; a(x)*y").poly


def test_polarize_refuses_oversized_results_before_building(monkeypatch):
    # the bound is len(poly) * prod(d!): 2 terms of degrees (3, 1) make 12
    two = identity_from_dsl("vars x,y; (a(x)*x)*(a2(x)*y) + (a(x)*y)*(a2(x)*x)")
    monkeypatch.setattr("homcheck.identities.MAX_RAW_TERMS", 12)
    assert len(polarize(two).poly) == 12
    monkeypatch.setattr("homcheck.identities.MAX_RAW_TERMS", 11)
    with pytest.raises(ValueError, match="12 terms"):
        polarize(two)
    monkeypatch.undo()
    # degree 9 polarizes to 9! = 362880 terms; degree 8 (40320) is allowed
    assert MAX_RAW_TERMS >= math.factorial(8)
    deg9 = identity_from_dsl("((((((((a(x)*x)*a2(x))*x)*a(x))*x)*a2(x))*x)*a(x))")
    assert deg9.degrees == (9,)
    monkeypatch.setattr(
        "homcheck.identities.canon_sum",
        lambda terms: pytest.fail("polarize built terms"),
    )
    with pytest.raises(ValueError, match="362880 terms"):
        polarize(deg9)


def _reidentify(pol, original):
    index = {v: i for i, v in enumerate(original.vars)}
    images = tuple(
        (1, index[name.split("#")[0]], 0) for name in pol.vars
    )
    return substitute(pol, Substitution(images, original.vars))


def test_reidentification_factor():
    rng = random.Random(4)
    cases = 0
    while cases < 300:
        degrees = rng.choice([(2, 1, 1), (3, 1), (2, 2), (2, 1)])
        names = tuple("wxyz"[: len(degrees)])
        terms = {}
        for _ in range(rng.randint(1, 4)):
            m = random_monomial(rng, degrees)
            if m is not None:
                terms[m] = terms.get(m, 0) + random_coeff(rng)
        poly = MPoly(terms)
        if poly.is_zero:
            continue
        ident = Identity(names, poly)
        pol = polarize(ident)
        assert pol.is_multilinear
        factor = 1
        for d in degrees:
            factor *= math.factorial(d)
        assert _reidentify(pol, ident).poly == scaled(poly, factor)
        cases += 1


def test_substitute_commutes_with_normalization():
    # substitution on tagged trees, then parsing and normalization, agrees
    # with substitution on normal forms
    rng = random.Random(5)
    target = ("u", "v")
    for _ in range(300):
        e = random_tagged_expr(rng, names=("x", "y"), max_terms=3, depth=2)
        images = []
        while len(images) < 2:
            m = random_monomial(rng, rng.choice([(1, 0), (0, 1), (1, 1)]))
            if m is not None:
                images.append(m)
        trees = [mono_to_tagged(m) for m in images]

        def walk(t):
            tag = t[0]
            if tag == "var":
                return trees[t[1]]
            if tag == "twist":
                return ("twist", walk(t[1]))
            return ("prod", walk(t[1]), walk(t[2]))

        tagged_sub = TaggedExpr(tuple((c, walk(t)) for c, t in e.terms), target)
        via_tagged = normalize(parse_tagged(tagged_sub))
        via_normal = substitute(
            Identity(("x", "y"), normalize(parse_tagged(e))),
            Substitution(tuple(images), target),
        ).poly
        assert via_tagged == via_normal


def _named_blocks(ident):
    return {(tuple(ident.vars[p] for p in positions), sign)
            for positions, sign in ident.swap_blocks}


def test_swap_blocks_of_the_catalog():
    antisym_pairs = {(("w", "x"), -1), (("y", "z"), -1)}
    expected = {
        "hom_malcev": {(("x#1", "x#2"), 1)},
        "malcev": {(("x#1", "x#2"), 1)},
        "identity_1_2": antisym_pairs,
        "eq_2_3": antisym_pairs,
        "eq_2_4": antisym_pairs,
        "eq_2_5": antisym_pairs,
        # symmetric blocks whose positions are not adjacent
        "eq_2_2": {(("w", "y"), 1), (("x", "z"), 1)},
        "hom_jacobi": {(("x", "y", "z"), -1)},
    }
    for name, blocks in expected.items():
        assert _named_blocks(polarize(catalog(name))) == blocks, name


def _prepared_corpus():
    """Fresh copies, with nothing prepared yet, of every catalog identity,
    its polarized and its stripped form, and of seeded random multilinear
    identities, half of them made symmetric under one swap."""
    idents = [identity_from_dsl("vars w,x,y,z; G(w,x,y,z)"),
              Identity(("w", "x", "y"), MPoly())]
    for name in CATALOG_NAMES:
        ident = catalog(name)
        idents += [ident, polarize(ident), strip_twist(ident)]
    rng = random.Random(5)
    for _ in range(20):
        ident = random_multilinear(rng)
        i, j = rng.sample(range(4), 2)
        sym = poly_combine([(1, ident.poly), (rng.choice((1, -1)), swapped(ident, i, j).poly)])
        idents += [ident, Identity(ident.vars, sym)]
    return [Identity(*ident._values()) for ident in idents]


def test_swap_blocks_matches_substituting_each_transposition(monkeypatch):
    # renaming monomials in place finds the blocks that substituting each
    # transposition and comparing whole normal forms finds, and calls
    # substitute for none of them
    idents = _prepared_corpus()
    want = [reference_swap_blocks(ident) for ident in idents]
    monkeypatch.setattr(identities, "substitute", None)
    assert [ident.swap_blocks for ident in idents] == want
    assert {len(blocks) for blocks in want} == {0, 1, 2}


def test_grades_and_components_match_the_references():
    idents = _prepared_corpus()
    grades = [reference_grades(ident) for ident in idents]
    assert [ident.grades for ident in idents] == grades
    assert {g is None for g in grades} == {True, False}
    multilinear = [ident for ident in idents if ident.is_multilinear]
    components = [reference_components(ident) for ident in multilinear]
    assert [ident.components for ident in multilinear] == components
    assert {len(c) for c in components} >= {1, 2}


def test_swap_blocks_without_a_swap_symmetry():
    assert identity_from_dsl("vars x,y,z; (x*a(y))*z").swap_blocks == ()
    # changes sign under the double swap (w y)(x z) only, which is not a
    # transposition
    ident = identity_from_dsl("vars w,x,y,z; (w*a(x))*(y*a(z))")
    double = substitute(
        ident, Substitution(((1, 2, 0), (1, 3, 0), (1, 0, 0), (1, 1, 0)), ident.vars)
    )
    assert double.poly == scaled(ident.poly, -1)
    assert ident.swap_blocks == ()


def test_swap_blocks_of_the_zero_polynomial():
    # every swap matches; the skipped tuples evaluate to 0 like all others
    zero = catalog("lemma_2_4_ii")
    assert zero.poly.is_zero
    assert zero.swap_blocks == (((0, 1, 2, 3), 1),)
    assert check_identity_concrete(load_algebra_file("m7"), zero) is None
