import random

from fractions import Fraction

from homcheck.consequence import enumerate_monomials
from homcheck.dsl import format_expr, parse_expr
from homcheck.normalform import (
    linear_combination,
    map_leaves,
    multidegree,
    normalize,
    poly_combine,
    shift_power,
)
from homcheck.identities import CATALOG_NAMES, catalog, polarize

from conftest import (
    parse_tagged,
    random_monomial,
    random_tagged_expr,
    reference_key,
    shuffled_variant,
)


def compare_monomials(m1, m2):
    """-1, 0 or 1 according to the monomial order, which is tuple order."""
    return (m1 > m2) - (m1 < m2)


def nf(text):
    e = parse_expr(text)
    return normalize(e), e.vars


def test_twist_pushdown():
    p, names = nf("a(x*y)")
    ((mono, coeff),) = p.sorted_terms()
    assert coeff == 1
    assert mono == (2, (1, 0, 1), (1, 1, 1))  # a(x)*a(y)


def test_sign_ordering():
    p, names = nf("vars x,y; y*x")
    assert format_expr(p, names) == "-x*y"


def test_square_vanishes():
    assert nf("x*x")[0].is_zero
    assert nf("J(x,x,y)")[0].is_zero


def test_compare_examples():
    x, ax = (1, 0, 0), (1, 0, 1)
    assert compare_monomials(x, ax) == -1
    a2y, xy = (1, 1, 2), (2, (1, 0, 0), (1, 1, 0))
    assert compare_monomials(a2y, xy) == -1
    # (x*y)*z < (x*z)*y: equal leaf counts, left factors (x*y) < (x*z)
    m1 = (3, (2, (1, 0, 0), (1, 1, 0)), (1, 2, 0))
    m2 = (3, (2, (1, 0, 0), (1, 2, 0)), (1, 1, 0))
    assert compare_monomials(m1, m2) == -1
    assert compare_monomials(m2, m1) == 1
    assert compare_monomials(m1, m1) == 0


def test_order_is_total_and_consistent_with_keys():
    # tuple order on the encoding agrees with the reference key on normal
    # forms, enumerated monomials and every polarized catalog identity
    rng = random.Random(1)
    normal_forms = set()
    for _ in range(200):
        normal_forms.update(normalize(parse_tagged(random_tagged_expr(rng))).coeffs)
    corpora = [normal_forms]
    corpora += [enumerate_monomials(range(4), k) for k in range(3)]
    corpora += [polarize(catalog(name)).poly.coeffs for name in CATALOG_NAMES]
    for monos in corpora:
        assert sorted(monos) == sorted(monos, key=reference_key)
    monos = sorted(normal_forms, key=reference_key)
    for a, b in zip(monos, monos[1:]):
        assert compare_monomials(a, b) == -1
        assert compare_monomials(b, a) == 1
        assert compare_monomials(a, a) == 0


def test_canon_puts_the_key_smaller_child_left():
    # canon on random unordered trees (repeated variables included) and
    # on normal forms: every product leads with its leaf count and has
    # its key-smaller child on the left
    def leaf_count(mono):
        if isinstance(mono[1], int):
            return 1
        assert reference_key(mono[1]) < reference_key(mono[2])
        n = leaf_count(mono[1]) + leaf_count(mono[2])
        assert mono[0] == n
        return n

    rng = random.Random(4)
    monos = set()
    for _ in range(200):
        monos.update(normalize(parse_tagged(random_tagged_expr(rng))).coeffs)
        degrees = rng.choice([(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1, 1)])
        monos.add(random_monomial(rng, degrees))
    monos.discard(None)
    assert len(monos) > 300
    for mono in monos:
        leaf_count(mono)


def test_poly_combine():
    p, _ = nf("x*y")
    assert poly_combine([(1, p), (-1, p)]).is_zero
    doubled = poly_combine([(2, p)])
    assert list(doubled.coeffs.values()) == [Fraction(2)]
    j1, _ = nf("vars x,y,z; J(x,y,z)")
    j2, _ = nf("vars x,y,z; J(y,x,z)")
    assert poly_combine([(1, j1), (1, j2)]).is_zero
    # the loop behind it, on plain sparse dicts
    assert linear_combination([(2, {0: 1, 1: 3}), (-1, {0: 2}), (0, {4: 5})]) == {1: 6}


def test_map_leaves_visits_left_to_right():
    # ((x*a(y))*z): leaves x, a(y), z; a stateful fn sees them in order
    mono = (3, (2, (1, 0, 0), (1, 1, 1)), (1, 2, 0))
    seen = []
    out = map_leaves(mono, lambda v, p: seen.append((v, p)) or (1, len(seen), p))
    assert seen == [(0, 0), (1, 1), (2, 0)]
    assert out == (3, (2, (1, 1, 0), (1, 2, 1)), (1, 3, 0))
    assert shift_power(mono, 2) == (3, (2, (1, 0, 2), (1, 1, 3)), (1, 2, 2))
    assert shift_power((1, 1, 0), 1) == (1, 1, 1)


def test_multidegree():
    p, names = nf("J(x,y,z)")
    assert multidegree(p, 3) == (1, 1, 1)
    hm = catalog("hom_malcev")
    assert multidegree(hm.poly, 3) == (2, 1, 1)
    p, names = nf("x*y + x")
    assert multidegree(p, 2) is None
    assert multidegree(nf("x - x")[0], 1) == (0,)


def test_free_identity_lemma():
    # holds in the free anticommutative multiplicative Hom-algebra,
    # no axioms assumed
    assert catalog("lemma_2_4_ii").poly.is_zero


def test_idempotence_corpus():
    rng = random.Random(2)
    for _ in range(1000):
        p = normalize(parse_tagged(random_tagged_expr(rng)))
        text = format_expr(p, ("w", "x", "y", "z"))
        reparsed = parse_expr("vars w,x,y,z; " + text)
        assert normalize(reparsed) == p


def test_confluence_corpus():
    rng = random.Random(3)
    for _ in range(1000):
        e = random_tagged_expr(rng)
        shuffled = shuffled_variant(rng, e)
        assert normalize(parse_tagged(shuffled)) == normalize(parse_tagged(e))
