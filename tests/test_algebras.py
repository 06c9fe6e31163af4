import gc
import itertools
import json
import random
import tracemalloc

import pytest
from fractions import Fraction

from homcheck import algebras
from homcheck.algebras import (
    AlgebraError,
    AlgebraSpec,
    check_identity_concrete,
    dump_algebra,
    element_add,
    load_algebra,
    load_algebra_file,
    multiply,
    yau_twist,
)
from homcheck.identities import (
    CATALOG_NAMES,
    Identity,
    catalog,
    identity_from_dsl,
    polarize,
    strip_twist,
)
from homcheck.normalform import (
    mono_leaves,
    normalize,
    poly_combine,
)

from conftest import (
    apply_twist,
    basis_element,
    eval_poly,
    eval_raw,
    parse_tagged,
    random_multilinear,
    random_tagged_expr,
    reference_sweep,
    swapped,
)


def bundled(name):
    return load_algebra_file(name)


# ---------------------------------------------------------------------------
# bundled data against independent oracles

def test_cross3_is_the_cross_product_algebra():
    spec = bundled("cross3")
    assert spec.dim == 3
    e = [basis_element(i) for i in range(3)]
    assert multiply(spec, e[0], e[1]) == {2: 1}
    assert multiply(spec, e[1], e[0]) == {2: -1}
    assert multiply(spec, e[0], e[2]) == {1: -1}
    assert multiply(spec, e[1], e[2]) == {0: 1}
    assert multiply(spec, e[0], e[0]) == {}


def test_cross3_jacobi_all_27_triples():
    # independent oracle: the cross product is a Lie bracket, so the
    # plain Jacobi sum vanishes on every basis triple
    spec = bundled("cross3")
    e = [basis_element(i) for i in range(3)]
    for x, y, z in itertools.product(e, repeat=3):
        s = element_add(
            [
                (1, multiply(spec, multiply(spec, x, y), z)),
                (1, multiply(spec, multiply(spec, y, z), x)),
                (1, multiply(spec, multiply(spec, z, x), y)),
            ]
        )
        assert s == {}


def test_m7_matches_cayley_dickson_oracle(cd_table):
    spec = bundled("m7")
    assert spec.dim == 7
    assert spec.product == cd_table


def test_m7_satisfies_malcev_identity_independently(cd_table):
    # oracle written directly against the structure constants, without
    # the symbolic layer: J(x,y,x*z) = J(x,y,z)*x for basis triples and
    # seeded random rational triples
    spec = bundled("m7")

    def jac(x, y, z):
        return element_add(
            [
                (1, multiply(spec, multiply(spec, x, y), z)),
                (1, multiply(spec, multiply(spec, y, z), x)),
                (1, multiply(spec, multiply(spec, z, x), y)),
            ]
        )

    def check(x, y, z):
        lhs = jac(x, y, multiply(spec, x, z))
        rhs = multiply(spec, jac(x, y, z), x)
        assert lhs == rhs

    for i, j, k in itertools.product(range(7), repeat=3):
        check(basis_element(i), basis_element(j), basis_element(k))
    rng = random.Random(7)
    for _ in range(25):
        x, y, z = (
            {i: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for i in range(7)}
            for _ in range(3)
        )
        check(x, y, z)


def test_m7_auto_twist_is_multiplicative():
    spec = bundled("m7_auto")
    assert spec.is_multiplicative() is None
    # and it is a signed permutation of order 8 fixing e1, e4, e5
    for i in (0, 3, 4):
        assert apply_twist(spec, basis_element(i)) == {i: 1}


def test_cross3_rot_twist_is_a_rotation():
    spec = bundled("cross3_rot")
    assert spec.is_multiplicative() is None
    u = apply_twist(spec, {0: Fraction(1)})
    assert u == {0: Fraction(3, 5), 1: Fraction(4, 5)}


# ---------------------------------------------------------------------------
# loading and validation

def test_load_rejects_bad_documents():
    base = {"dim": 2, "twist": [["1", "0"], ["0", "1"]]}
    bad = [
        "not a dict",
        {"dim": 0, "twist": []},
        {**base, "basis": ["e1"]},
        {**base, "product": [{"i": 2, "j": 1, "out": {}}]},
        {**base, "product": [{"i": 1, "j": 2, "out": {"3": "1"}}]},
        {**base, "product": [{"i": 1, "j": 2, "out": {"1": "1/0"}}]},
        {
            **base,
            "product": [
                {"i": 1, "j": 2, "out": {"1": "1"}},
                {"i": 1, "j": 2, "out": {"1": "2"}},
            ],
        },
        {**base, "product": [{"i": 1, "j": 2, "out": ["1"]}]},
        {**base, "product": [{"i": 1, "j": 2, "out": {"x": "1"}}]},
        {**base, "product": 5},
        {"dim": 2, "twist": [["1", "0"]]},
        {"dim": 2, "twist": [["1", "0"], ["0", True]]},
    ]
    for doc in bad:
        with pytest.raises(AlgebraError):
            load_algebra(doc)


def test_load_reports_non_multiplicative_pair():
    doc = {
        "dim": 3,
        "product": [{"i": 1, "j": 2, "out": {"3": "1"}}],
        "twist": [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "require_multiplicative": True,
    }
    with pytest.raises(AlgebraError) as exc:
        load_algebra(doc)
    assert "(1, 2)" in str(exc.value)


def test_multiply_divides_the_integer_table_exactly():
    # e1*e2 = 1/2 e3 - 2/3 e1 and e1*e3 = 3 e2: the integer table is scaled
    # by dp = 6, and multiply returns the exact rational product
    product = {
        (0, 1): {2: Fraction(1, 2), 0: Fraction(-2, 3)},
        (0, 2): {1: Fraction(3)},
    }
    one = tuple(tuple(Fraction(i == j) for j in range(3)) for i in range(3))
    spec = AlgebraSpec(3, ("e1", "e2", "e3"), product, one)
    assert spec.integer_form[0] == 6
    u = {0: Fraction(3, 4), 1: 2}
    v = {1: Fraction(-1, 5), 2: 7}
    # u*v = 3/4*(-1/5) e1*e2 + 3/4*7 e1*e3 + 2*7 e2*e3, with e2*e3 = 0
    want = element_add([
        (Fraction(-3, 20), product[(0, 1)]),
        (Fraction(21, 4), product[(0, 2)]),
    ])
    got = multiply(spec, u, v)
    assert got == want
    assert all(type(c) is Fraction for c in got.values())
    assert multiply(spec, v, u) == {k: -c for k, c in want.items()}
    assert multiply(spec, u, u) == {}


def test_integer_multiplicativity_check_matches_fraction_reference():
    # is_multiplicative compares dt*a(e_i*e_j) with a(e_i)*a(e_j) in the
    # integer form; a Fraction check built from apply_twist and multiply
    # finds the same first failing pair, on twists with denominators
    rng = random.Random(3)
    specs = [_random_spec(rng, multiplicative=False) for _ in range(80)]
    # e2*e3 = e1 and a = diag(1/2, 1, 1) first fail on the last pair
    half = tuple(
        tuple(Fraction(1, 2) if i == j == 0 else Fraction(i == j) for j in range(3))
        for i in range(3)
    )
    specs.append(AlgebraSpec(3, ("e1", "e2", "e3"), {(1, 2): {0: Fraction(1)}}, half))
    verdicts = set()
    for spec in specs:
        if all(c.denominator == 1 for row in spec.twist for c in row):
            continue
        e = [basis_element(i) for i in range(spec.dim)]
        want = next(
            (
                (i + 1, j + 1)
                for i in range(spec.dim)
                for j in range(i + 1, spec.dim)
                if apply_twist(spec, multiply(spec, e[i], e[j]))
                != multiply(spec, apply_twist(spec, e[i]), apply_twist(spec, e[j]))
            ),
            None,
        )
        assert spec.is_multiplicative() == want
        verdicts.add(want)
    assert {None, (1, 2), (2, 3)} <= verdicts


def test_load_missing_file():
    with pytest.raises(FileNotFoundError):
        load_algebra_file("/nonexistent/algebra.json")


def test_dump_roundtrip():
    for name in algebras.BUNDLED:
        for spec in (bundled(name), yau_twist(bundled(name))):
            doc = json.loads(json.dumps(dump_algebra(spec)))
            assert load_algebra(doc, spec.name) == spec
            assert ("symmetries" in doc) == (name != "abelian4")
    # an algebra without symmetries dumps the keys it always had
    assert list(dump_algebra(bundled("abelian4"))) == [
        "dim", "basis", "product", "twist", "require_multiplicative"
    ]


M7_SYMMETRIES = [[-3, 1, -2, -7, -4, -6, -5], [7, -4, 3, -5, 2, 1, 6]]

# (algebra, declared symmetries, the AlgebraError's message)
NOT_SYMMETRIES = (
    ("cross3", [[1, 1, 3]], "'symmetries' must list signed permutations of 1..3"),
    # e1 <-> e2 maps e1*e2 = e3 to e2*e1 = -e3, and e1 -> -e1 maps it to -e3
    ("cross3", [[2, 1, 3]], "symmetry [2, 1, 3] does not preserve the product"),
    ("cross3", [[-1, 2, 3]], "symmetry [-1, 2, 3] does not preserve the product"),
    # automorphisms of m7_auto's product, which is m7's, but not of its twist
    ("m7_auto", M7_SYMMETRIES,
     "symmetry [-3, 1, -2, -7, -4, -6, -5] does not commute with the twist"),
)


def test_bundled_symmetries_generate_their_groups():
    # the group orders of the signed-permutation automorphisms, signs
    # dropped; abelian4 declares none
    for name, order in (("m7", 168), ("cross3", 6), ("m7_auto", 8),
                        ("cross3_rot", 2), ("abelian4", 1)):
        spec = bundled(name)
        assert len(spec.permutations) == len(set(spec.permutations)) == order
        assert yau_twist(spec).permutations == spec.permutations
    assert bundled("m7").symmetries == tuple(map(tuple, M7_SYMMETRIES))


def test_symmetries_must_be_signed_permutations():
    doc = dump_algebra(bundled("cross3"))
    for bad in ({}, [3, 2, 1], [[1, 2]], [[0, 1, 2]], [[1, 2, 4]], [[True, 2, 3]],
                [[1, 2, "3"]], [[1.0, 2, 3]]):
        with pytest.raises(AlgebraError, match=r"signed permutations of 1\.\.3"):
            load_algebra({**doc, "symmetries": bad})


def test_a_declared_symmetry_that_is_not_one_is_refused():
    # the shape is checked on loading, the rest on the first sweep or
    # dump, of the algebra or of its Yau twist
    for name, symmetries, message in NOT_SYMMETRIES:
        doc = {**dump_algebra(bundled(name)), "symmetries": symmetries}
        for use in (
            lambda: check_identity_concrete(load_algebra(doc), catalog("hom_malcev")),
            lambda: dump_algebra(load_algebra(doc)),
            lambda: yau_twist(load_algebra(doc)).permutations,
        ):
            with pytest.raises(AlgebraError) as refused:
                use()
            assert str(refused.value) == message


# ---------------------------------------------------------------------------
# concrete verdicts

def test_cross3_verdicts():
    spec = bundled("cross3")
    assert check_identity_concrete(spec, catalog("hom_jacobi")) is None
    assert check_identity_concrete(spec, catalog("malcev")) is None
    assert check_identity_concrete(spec, catalog("hom_malcev")) is None


def test_m7_verdicts():
    spec = bundled("m7")
    assert check_identity_concrete(spec, catalog("malcev")) is None
    assert check_identity_concrete(spec, catalog("hom_malcev")) is None
    assert check_identity_concrete(spec, catalog("identity_1_2")) is None


def test_m7_jacobi_counterexample():
    spec = bundled("m7")
    res = check_identity_concrete(spec, catalog("hom_jacobi"))
    assert res is not None
    assert res.tuple_indices == (1, 2, 4)
    assert res.residual == {6: 3}
    assert "e1" in res.to_text(spec) and "3*e7" in res.to_text(spec)


def test_m7_satisfies_derived_consequences():
    spec = bundled("m7")
    for name in ("eq_2_2", "eq_2_3", "eq_2_4", "eq_2_5", "lemma_2_4_ii", "g_def"):
        assert check_identity_concrete(spec, catalog(name)) is None, name


def test_abelian4_satisfies_everything():
    spec = bundled("abelian4")
    for name in ("hom_jacobi", "hom_malcev", "identity_1_2"):
        assert check_identity_concrete(spec, catalog(name)) is None


def test_identity_twist_reduces_hom_to_plain():
    # with twist = Id, the Hom identities are literally the untwisted ones
    for name in ("cross3", "m7"):
        spec = bundled(name)
        assert all(
            spec.twist[i][j] == (1 if i == j else 0)
            for i in range(spec.dim)
            for j in range(spec.dim)
        )
        hm = check_identity_concrete(spec, catalog("hom_malcev"))
        m = check_identity_concrete(spec, strip_twist(catalog("hom_malcev")))
        assert (hm is None) == (m is None)


# ---------------------------------------------------------------------------
# the twisting construction

def test_yau_twist_with_identity_map_is_a_no_op():
    spec = bundled("cross3")
    assert yau_twist(spec).product == spec.product


def test_yau_twist_requires_multiplicativity():
    doc = {
        "dim": 3,
        "product": [{"i": 1, "j": 2, "out": {"3": "1"}}],
        "twist": [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }
    with pytest.raises(AlgebraError):
        yau_twist(load_algebra(doc))


def test_yau_twist_produces_hom_malcev_algebras():
    for name in ("cross3_rot", "m7_auto"):
        spec = bundled(name)
        assert check_identity_concrete(spec, catalog("malcev")) is None
        twisted = yau_twist(spec)
        assert check_identity_concrete(twisted, catalog("hom_malcev")) is None
        assert check_identity_concrete(twisted, catalog("identity_1_2")) is None


def test_twisted_m7_fails_hom_jacobi():
    twisted = yau_twist(bundled("m7_auto"))
    assert check_identity_concrete(twisted, catalog("hom_jacobi")) is not None


# ---------------------------------------------------------------------------
# symbolic layer vs direct evaluation

def _random_rational(rng):
    return Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3, 5)))


def _random_product(rng, dim):
    product = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            out = {k: _random_rational(rng) for k in range(dim) if rng.random() < 0.5}
            out = {k: c for k, c in out.items() if c}
            if out:
                product[(i, j)] = out
    return product


def _random_twist(rng, dim):
    return tuple(tuple(_random_rational(rng) for _ in range(dim)) for _ in range(dim))


def _random_spec(rng, multiplicative=True):
    """A random algebra whose constants have denominators 1, 2, 3 and 5.

    With multiplicative=False a fourth kind joins the three multiplicative
    ones: a random product with a random twist.
    """
    kind = rng.randrange(3 if multiplicative else 4)
    basis = tuple(f"e{i+1}" for i in range(4))
    if kind == 0:
        # random anticommutative product, twist = Id (trivially multiplicative
        # evaluation-wise; multiplicativity is not needed for agreement)
        dim = rng.randint(1, 3)
        twist = tuple(
            tuple(Fraction(1 if a == b else 0) for b in range(dim))
            for a in range(dim)
        )
        return AlgebraSpec(dim, basis[:dim], _random_product(rng, dim), twist)
    if kind == 1:
        # zero product with an arbitrary twist (always multiplicative)
        dim = rng.randint(1, 4)
        return AlgebraSpec(dim, basis[:dim], {}, _random_twist(rng, dim))
    if kind == 3:
        dim = rng.randint(1, 3)
        product = _random_product(rng, dim)
        return AlgebraSpec(dim, basis[:dim], product, _random_twist(rng, dim))
    return bundled("cross3_rot")


def test_symbolic_agrees_with_direct_evaluation_corpus():
    # eval(normalize(e)) == eval(e) needs the algebra to actually be an
    # anticommutative multiplicative Hom-algebra; all three generators are
    rng = random.Random(11)
    for _ in range(1000):
        spec = _random_spec(rng)
        expr = random_tagged_expr(rng, names=("w", "x", "y", "z"), depth=3)
        values = tuple(
            {
                i: Fraction(rng.randint(-2, 2))
                for i in range(spec.dim)
                if rng.random() < 0.7
            }
            for _ in range(4)
        )
        direct = eval_raw(spec, expr, values)
        symbolic = eval_poly(spec, normalize(parse_tagged(expr)), values)
        assert direct == symbolic


def test_eval_poly_on_catalog_identity():
    spec = bundled("cross3")
    values = ({0: Fraction(1)}, {1: Fraction(2)}, {0: Fraction(1), 2: Fraction(-1)})
    assert eval_poly(spec, catalog("hom_jacobi").poly, values) == {}


# ---------------------------------------------------------------------------
# the tabulated integer sweep against a plain one

def test_concrete_sweep_matches_reference_sweep():
    rng = random.Random(5)
    specs = [_random_spec(rng, multiplicative=False) for _ in range(16)]
    specs.append(yau_twist(bundled("cross3_rot")))
    names = ("hom_malcev", "malcev", "identity_1_2", "hom_jacobi",
             "eq_2_2", "eq_2_3", "eq_2_4", "eq_2_5")
    verdicts = set()
    for spec in specs:
        for name in names:
            got = check_identity_concrete(spec, catalog(name))
            assert got == reference_sweep(spec, catalog(name)), name
            verdicts.add(got is None)
    assert verdicts == {True, False}


def test_symmetry_reduced_sweep_matches_reference_sweep():
    # identities with swap symmetries, so that the sweep skips tuples
    rng = random.Random(9)
    idents = []
    for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):  # (w y), (x z) not adjacent
        for sign in (1, -1):
            ident = random_multilinear(rng)
            poly = poly_combine([(1, ident.poly), (sign, swapped(ident, i, j).poly)])
            idents.append(Identity(ident.vars, poly))
            assert any({i, j} <= set(b) for b, _ in idents[-1].swap_blocks)
    ident = random_multilinear(rng)
    sym = poly_combine([(1, ident.poly), (1, swapped(ident, 0, 2).poly)])
    sym = Identity(ident.vars, sym)
    two = poly_combine([(1, sym.poly), (-1, swapped(sym, 1, 3).poly)])
    idents.append(Identity(ident.vars, two))
    assert len(idents[-1].swap_blocks) == 2
    idents.append(identity_from_dsl("J(w*x,a(y),a(z))"))
    # the partner sum of first child w, x*(y*z) - y*(x*z), vanishes where
    # x = y, and no swap symmetry skips those tuples
    partner_vanishes = identity_from_dsl(VANISHING_PARTNER_CASE)
    assert partner_vanishes.swap_blocks == ()
    idents.append(partner_vanishes)
    # top monomials that are leaves, or products of two leaves
    idents.extend(identity_from_dsl(text) for text in ("a(x) - x", "a(x)*y + x*a(y)"))
    # the two parts of w's partner share their first child x; and a
    # partner that is one part with weight 4 once normalized
    idents.extend(identity_from_dsl(text) for text in SHARED_FIRST_CHILD_CASES)
    # declared variables the identity does not contain: v (and w)
    unused = [identity_from_dsl(text) for text in UNUSED_VARIABLE_CASES]
    specs = [_random_spec(rng, multiplicative=False) for _ in range(12)]
    specs.append(yau_twist(bundled("cross3_rot")))
    specs.append(bundled("cross3"))
    verdicts, unused_verdicts = set(), set()
    for spec in specs:
        for ident in idents + unused:
            got = check_identity_concrete(spec, ident)
            assert got == reference_sweep(spec, ident)
            verdicts.add(got is None)
            if ident in unused:
                unused_verdicts.add(got is None)
    assert verdicts == unused_verdicts == {True, False}


def test_orbit_sweep_matches_plain_sweep_on_bundled_algebras():
    # each bundled algebra and its Yau twist declares its symmetries (but
    # abelian4); the failing tuples are a union of orbits of their group,
    # so the first failing tuple and its residual are the plain sweep's.
    # A Yau twist with the same product (twist Id, or the zero product)
    # is the algebra itself, and is swept once.
    rng = random.Random(33)
    idents = [catalog(name) for name in CATALOG_NAMES]
    idents += [random_multilinear(rng) for _ in range(10)]
    specs = []
    for name in algebras.BUNDLED:
        spec = bundled(name)
        twisted = yau_twist(spec)
        specs += [spec] if twisted.product == spec.product else [spec, twisted]
    assert len(specs) == 7
    firsts = set()
    for spec in specs:
        for ident in idents:
            got = check_identity_concrete(spec, ident)
            assert got == reference_sweep(spec, ident), (spec.name, ident.name)
            firsts.add(got and got.tuple_indices)
    assert {None, (1, 2, 1, 3), (1, 1, 2, 4)} < firsts


VANISHING_PARTNER_CASE = "w*(x*(y*z)) - w*(y*(x*z)) + (w*x)*(y*z)"

SHARED_FIRST_CHILD_CASES = (
    "w*(x*(y*z)) + 2*w*(x*(a(y)*a(z)))",
    "3*w*(x*y) - w*(y*x)",
)

UNUSED_VARIABLE_CASES = (
    "vars v,x,y,z; J(x,y,z)",
    "vars v,w,x,y,z; J(x,y,x*z) - J(x,y,z)*x",
)


def _count_calls(monkeypatch, name):
    """Count the calls of the algebras function ``name``."""
    calls = [0]
    original = getattr(algebras, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(algebras, name, counted)
    return calls


def _count_root_work(monkeypatch):
    """Count the sweep's root evaluations (outermost ``_evaluate`` calls)
    and the products the root computes itself (``_multiply_into`` calls
    made directly by an outermost ``_evaluate``)."""
    counts = {"roots": 0, "top products": 0}
    depth = 0
    evaluate, multiply_into = algebras._evaluate, algebras._multiply_into

    def counted_evaluate(*args):
        nonlocal depth
        counts["roots"] += depth == 0
        depth += 1
        try:
            return evaluate(*args)
        finally:
            depth -= 1

    def counted_multiply_into(*args):
        counts["top products"] += depth == 1
        return multiply_into(*args)

    monkeypatch.setattr(algebras, "_evaluate", counted_evaluate)
    monkeypatch.setattr(algebras, "_multiply_into", counted_multiply_into)
    return counts


def test_sweep_visits_one_tuple_per_orbit(monkeypatch):
    # the sweep evaluates the identity's root node once per tuple it
    # visits: one per orbit of the variable swaps without symmetries
    # (abelian4), far fewer under m7's group of 168 permutations, and
    # more under the 8 of twisted m7_auto (1372, 441 and 784 tuples
    # modulo the swaps alone)
    specs = {name: bundled(name) for name in ("m7", "cross3", "abelian4")}
    specs["twisted"] = yau_twist(bundled("m7_auto"))
    # a file without symmetries sweeps as before they existed
    doc = dump_algebra(specs["m7"])
    del doc["symmetries"]
    specs["m7 without symmetries"] = load_algebra(doc)
    counts = _count_root_work(monkeypatch)
    for spec, name, count in (
        ("m7 without symmetries", "hom_malcev", 1372),
        ("m7 without symmetries", "identity_1_2", 441),
        ("m7", "hom_malcev", 18),
        ("m7", "identity_1_2", 9),
        ("m7", "eq_2_2", 21),
        ("twisted", "hom_malcev", 217),
        ("twisted", "identity_1_2", 86),
        ("cross3", "hom_jacobi", 1),
        ("abelian4", "hom_jacobi", 4),
        # a variable the identity does not contain is swept at index 0
        # only; sweeping v (and w, one symmetric block) over every index
        # would visit 3 tuples, and 28 * 1372 = 38 416 on m7 modulo the
        # swaps alone; m7's permutations need not fix index 0 there, so it
        # visits the 18 tuples of the identity without v and w
        ("cross3", UNUSED_VARIABLE_CASES[0], 1),
        ("m7", UNUSED_VARIABLE_CASES[1], 18),
    ):
        counts["roots"] = 0
        ident = catalog(name) if name in CATALOG_NAMES else identity_from_dsl(name)
        assert check_identity_concrete(specs[spec], ident) is None
        assert counts["roots"] == count, (spec, name)


def test_sweep_does_one_product_per_first_child(monkeypatch):
    # at each visited tuple, the root does one product per distinct first
    # child of the top monomials: 8 -> 5 for hom_malcev, 9 -> 5 for
    # identity_1_2
    m7, twisted = bundled("m7"), yau_twist(bundled("m7_auto"))
    counts = _count_root_work(monkeypatch)
    for spec, name, tuples in (
        (m7, "hom_malcev", 18),
        (m7, "identity_1_2", 9),
        (twisted, "hom_malcev", 217),
        (twisted, "identity_1_2", 86),
    ):
        counts["top products"] = 0
        firsts = {mono[1] for mono in polarize(catalog(name)).poly.coeffs}
        assert len(firsts) == 5
        assert check_identity_concrete(spec, catalog(name)) is None
        assert counts["top products"] == tuples * len(firsts), name


def _nodes_below_top(mono):
    for child in mono[1:]:
        if child[0] != 1:
            yield child
            yield from _nodes_below_top(child)


def test_sweep_computes_each_node_once_per_assignment(monkeypatch):
    # every product, multiply's included, goes through _multiply_into
    calls = _count_calls(monkeypatch, "_multiply_into")
    spec = load_algebra_file("m7")  # 21 calls: the multiplicativity check
    ident = polarize(catalog("hom_malcev"))
    assert check_identity_concrete(spec, ident) is None
    nodes = {node for mono in ident.poly.coeffs for node in _nodes_below_top(mono)}
    firsts = {mono[1] for mono in ident.poly.coeffs}
    # one product per first child at each tuple, and each node below
    # the top once per assignment of its own variables
    bound = 7 ** 4 * len(firsts) + 21 + sum(
        7 ** len({v for v, _ in mono_leaves(node)}) for node in nodes
    )
    assert calls[0] <= bound


def test_sweep_releases_its_tables():
    # with the cyclic collector off, anything a reference cycle kept
    # alive would still be allocated after the call returns
    spec, ident = bundled("m7"), catalog("hom_malcev")
    check_identity_concrete(spec, ident)  # fills spec's cached integer form
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert check_identity_concrete(spec, ident) is None
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert after - before < 64 * 1024
