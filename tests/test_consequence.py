import itertools
import json
import pathlib
import subprocess
import sys

import pytest
from fractions import Fraction

from homcheck import consequence, identities
from homcheck.consequence import (
    Certificate,
    Instance,
    NotInSpan,
    SearchBounds,
    derive,
    enumerate_monomials,
    generate_instances,
    span_membership,
)
from homcheck.identities import (
    Identity,
    Substitution,
    catalog,
    identity_from_dsl,
    polarize,
    strip_twist,
    substitute,
)
from homcheck.normalform import MPoly, canon, poly_combine

from conftest import child_env, reference_instances, reference_key, scaled

K0 = SearchBounds(0)
K1 = SearchBounds(1)
GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_enumerate_single_variable():
    assert enumerate_monomials((0,), 2) == [(1, 0, 0), (1, 0, 1), (1, 0, 2)]


def test_enumerate_two_variables_k0():
    assert enumerate_monomials((0, 1), 0) == [(2, (1, 0, 0), (1, 1, 0))]


def test_enumerate_three_variables_k0_against_bracketing_oracle():
    # oracle: canonicalize all 12 ordered full bracketings of x, y, z
    leaves = [(1, 0, 0), (1, 1, 0), (1, 2, 0)]
    oracle = set()
    for a, b, c in itertools.permutations(leaves):
        for tree in ((3, (2, a, b), c), (3, a, (2, b, c))):
            res = canon(tree)
            if res is not None:
                oracle.add(res[1])
    got = enumerate_monomials((0, 1, 2), 0)
    assert got == sorted(oracle, key=reference_key)
    assert len(got) == 3


def all_trees(leaves):
    # every product tree over the leaves, the first leaf in the left factor
    if len(leaves) == 1:
        yield leaves[0]
        return
    first, rest = leaves[0], leaves[1:]
    for bits in itertools.product((0, 1), repeat=len(rest)):
        right = tuple(l for l, b in zip(rest, bits) if b)
        if right:
            left = (first,) + tuple(l for l, b in zip(rest, bits) if not b)
            for lt in all_trees(left):
                for rt in all_trees(right):
                    yield (len(leaves), lt, rt)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_enumerate_matches_canonicalized_trees(k):
    # oracle: every tree over every power assignment, canonicalized by
    # canon, deduplicated and sorted
    subsets = [
        s for r in range(1, 5) for s in itertools.combinations(range(4), r)
    ]
    assert len(subsets) == 15
    for subset in subsets:
        oracle = set()
        for powers in itertools.product(range(k + 1), repeat=len(subset)):
            for tree in all_trees(tuple((1, v, p) for v, p in zip(subset, powers))):
                res = canon(tree)
                if res is not None:
                    oracle.add(res[1])
        got = enumerate_monomials(subset, k)
        assert got == sorted(oracle, key=reference_key), subset


def test_enumerate_counts_scale_with_k():
    # one pairing shape set, (K+1)^2 power choices for two variables
    assert len(enumerate_monomials((0, 1), 2)) == 9
    assert len(enumerate_monomials((0,), 0)) == 1
    with pytest.raises(ValueError):
        enumerate_monomials((), 1)
    with pytest.raises(ValueError):
        enumerate_monomials((0,), -1)


def test_generate_instances_properties():
    j = catalog("hom_jacobi")
    insts = generate_instances(j, ("x", "y", "z"), K0)
    assert insts  # the identity substitution appears
    for inst in insts:
        assert inst.axiom == "hom_jacobi"
        assert not inst.identity.poly.is_zero
        assert inst.identity.vars == ("x", "y", "z")
    # deduplication up to scaling: all leading-normalized polys distinct
    keys = {
        tuple(
            (m, c / inst.identity.poly.leading()[1])
            for m, c in inst.identity.poly.sorted_terms()
        )
        for inst in insts
    }
    assert len(keys) == len(insts)
    # weights are nondecreasing
    weights = [consequence._weight(inst.substitution.images) for inst in insts]
    assert weights == sorted(weights)


def test_generate_instances_rejects_oversized_axiom():
    j = catalog("hom_jacobi")
    with pytest.raises(ValueError):
        generate_instances(j, ("x", "y"), K0)
    with pytest.raises(ValueError):
        generate_instances(catalog("hom_malcev"), ("x", "y", "z"), K0)


def test_span_membership_edge_cases():
    j = catalog("hom_jacobi")
    res = span_membership(j, [])
    assert isinstance(res, NotInSpan)
    assert res.residual == j.poly
    zero = identity_from_dsl("vars x,y,z; 0", "zero")
    cert = span_membership(zero, [])
    assert isinstance(cert, Certificate)
    assert cert.rows == []
    assert cert.replay().is_zero


def test_replay_mismatch_raises_without_assert(monkeypatch):
    # the final replay check must survive ``python -O``
    monkeypatch.setattr(Certificate, "replay", lambda self: MPoly())
    j = catalog("hom_jacobi")
    with pytest.raises(RuntimeError, match="replay mismatch"):
        span_membership(j, generate_instances(j, j.vars, K0))


def test_derive_self_is_single_row():
    j = catalog("hom_jacobi")
    result, target = derive(j, [j], K0)
    assert isinstance(result, Certificate)
    assert len(result.rows) == 1
    inst, coeff = result.rows[0]
    assert coeff == 1
    assert inst.identity.poly == j.poly


def test_derive_companion_identity_from_hom_malcev():
    result, target = derive(
        catalog("identity_1_2"), [catalog("hom_malcev")], SearchBounds(3)
    )
    assert isinstance(result, Certificate)
    assert len(result.rows) == 4  # pinned regression value
    assert result.replay() == target.poly


def test_derive_companion_identity_succeeds_already_at_k0():
    # the twisted leaves of the combination come from the axiom itself,
    # so substituting untwisted monomials suffices
    result, _ = derive(catalog("identity_1_2"), [catalog("hom_malcev")], K0)
    assert isinstance(result, Certificate)


def test_derive_hom_malcev_from_companion_identity():
    result, target = derive(
        catalog("hom_malcev"), [catalog("identity_1_2")], SearchBounds(3)
    )
    assert isinstance(result, Certificate)
    assert len(result.rows) == 4  # pinned regression value
    assert result.replay() == target.poly


def test_derive_auxiliary_consequences():
    pinned = {"eq_2_2": 2, "eq_2_3": 3, "eq_2_4": 4, "eq_2_5": 4}
    axioms = [catalog("hom_malcev")]
    for name, rows in pinned.items():
        result, target = derive(catalog(name), axioms, SearchBounds(3))
        assert isinstance(result, Certificate), name
        assert len(result.rows) == rows, name
        assert result.replay() == target.poly


def test_derive_hom_jacobi_not_consequence_of_hom_malcev():
    # the polarized axiom has four variables, the target three, so no
    # instances exist and the full target survives as the residual
    result, target = derive(catalog("hom_jacobi"), [catalog("hom_malcev")], K1)
    assert isinstance(result, NotInSpan)
    assert result.residual == target.poly
    assert result.residual_monomials == 3


def test_certificate_replay_is_exact_combination():
    result, target = derive(catalog("eq_2_2"), [catalog("hom_malcev")], K1)
    assert isinstance(result, Certificate)
    manual = poly_combine((c, inst.identity.poly) for inst, c in result.rows)
    assert manual == target.poly


def test_certificate_json_schema():
    result, _ = derive(catalog("eq_2_2"), [catalog("hom_malcev")], K1)
    obj = json.loads(result.to_json())
    assert isinstance(obj, list) and obj
    for row in obj:
        assert set(row) == {"axiom", "substitution", "coeff"}
        assert row["axiom"] == "hom_malcev"
        assert set(row["substitution"]) <= {"x", "y", "z", "x#1", "x#2"}
        Fraction(row["coeff"])  # parses as an exact rational


def test_derive_requires_multihomogeneous_target():
    bad = identity_from_dsl("vars x,y; x*y + x")
    with pytest.raises(ValueError):
        derive(bad, [catalog("hom_jacobi")], K0)


def test_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(-1)


def test_determinism_across_hash_seeds():
    # certificates must be bit-identical whatever the string hash seed
    script = (
        "from homcheck import SearchBounds, catalog, derive\n"
        "for name in ('eq_2_2', 'identity_1_2', 'hom_malcev'):\n"
        "    result, _ = derive(catalog(name), [catalog('hom_malcev')], SearchBounds(1))\n"
        "    print(result.to_json())\n"
    )
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, env=child_env(PYTHONHASHSEED=seed), timeout=300,
        ).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert len(lines) == 3 and all(json.loads(line) for line in lines)


def test_instance_enumeration_is_deterministic():
    pol = polarize(catalog("hom_malcev"))
    a = generate_instances(pol, ("w", "x", "y", "z"), K0)
    b = generate_instances(pol, ("w", "x", "y", "z"), K0)
    assert [i.substitution for i in a] == [i.substitution for i in b]


def eager_instances(axiom, target_vars, k):
    """Reference order: build every instance in enumeration order (set
    partition, block permutation, monomial picks), drop zeros, stable-sort
    by weight, keep the first of each class up to scaling."""
    built = []
    for part in consequence._set_partitions(range(len(target_vars)), len(axiom.vars)):
        choices = [enumerate_monomials(block, k) for block in part]
        for perm in itertools.permutations(range(len(part))):
            for picks in itertools.product(*(choices[p] for p in perm)):
                sub = Substitution(tuple(picks), target_vars)
                inst = Instance(axiom.name, axiom.vars, sub, substitute(axiom, sub))
                if not inst.identity.poly.is_zero:
                    built.append(inst)
    built.sort(key=lambda inst: consequence._weight(inst.substitution.images))
    out, seen = [], set()
    for inst in built:
        poly = inst.identity.poly
        lead = poly.leading()[1]
        key = tuple((m, c / lead) for m, c in poly.sorted_terms())
        if key not in seen:
            seen.add(key)
            out.append(inst)
    return out


@pytest.mark.parametrize("name, k", [
    ("hom_malcev", 0), ("hom_malcev", 1), ("hom_malcev", 2), ("hom_jacobi", 1),
])
def test_lazy_instances_match_eager_order(name, k):
    axiom = catalog(name)
    axiom = axiom if axiom.is_multilinear else polarize(axiom)
    target_vars = ("w", "x", "y", "z")
    want = eager_instances(axiom, target_vars, k)
    got = list(generate_instances(axiom, target_vars, SearchBounds(k)))
    assert [i.substitution for i in got] == [i.substitution for i in want]
    assert [i.identity.poly for i in got] == [i.identity.poly for i in want]


# axioms that keep a variable once polarized; lemma_2_4_ii and g_def
# vanish freely
STREAM_AXIOMS = ("malcev", "hom_jacobi", "hom_malcev", "identity_1_2",
                 "eq_2_2", "eq_2_3", "eq_2_4", "eq_2_5")

# a component of grade 3 everywhere and one of grade 4 over w, x, y, z;
# over v, w, x, y, z, components that one or two 2-variable blocks reach
STREAM_TARGETS = (
    "vars w,x,y,z; J(w*x,a(y),a(z)) + a(J(w*y,a(x),a(z))) + a2(w)*J(x,y,z)",
    "vars v,w,x,y,z; J((v*w)*x,a(y),a(z)) + J(v*w,x*y,a(z))"
    " + a(v)*J(w*x,a(y),a(z))",
)


@pytest.mark.parametrize("name", STREAM_AXIOMS)
def test_instance_stream_equals_all_permutations_reference(name):
    # one block permutation per orbit of the axiom's swap blocks gives the
    # stream that substituting all of them gives; eq_2_2's blocks (w y)
    # and (x z) are not adjacent, malcev is ungraded and ignores components
    axiom = polarize(catalog(name))
    graded = axiom.grades is not None
    full_k = 1 if name == "eq_2_2" else 0
    for text in STREAM_TARGETS:
        target = polarize(identity_from_dsl(text))
        for k in range(3):
            # an ungraded axiom ignores components, so it gets them at K=0
            # only; a full enumeration over five variables substitutes up
            # to 24 * 10 * 3^5 picks at K=2, so it runs to K=0, or to K=1
            # for eq_2_2
            givens = [target.components] if graded or k == 0 else []
            if len(target.vars) == 4 or k <= full_k:
                givens.append(None)
            for given in givens:
                want = reference_instances(axiom, target.vars, k, given)
                got = list(generate_instances(axiom, target.vars, SearchBounds(k), given))
                assert [i.substitution for i in got] == [i.substitution for i in want]
                assert [i.identity.poly for i in got] == [i.identity.poly for i in want]


def test_one_block_permutation_per_orbit(monkeypatch):
    # weight-0 picks over the axiom's own variables: one per block
    # permutation that increases along every swap block
    calls = count_substitute(monkeypatch)
    kept = {"malcev": 12, "hom_malcev": 12, "identity_1_2": 6, "eq_2_2": 6,
            "eq_2_3": 6, "eq_2_4": 6, "eq_2_5": 6, "hom_jacobi": 1}
    for name, count in kept.items():
        axiom = polarize(catalog(name))
        calls[0] = 0
        assert list(generate_instances(axiom, axiom.vars, K0))
        assert calls[0] == count, name


def count_substitute(monkeypatch):
    calls = [0]

    def counting(ident, sub):
        calls[0] += 1
        return substitute(ident, sub)

    monkeypatch.setattr(consequence, "substitute", counting)
    return calls


def test_derives_prepare_each_identity_once(monkeypatch):
    # the polarized form and the swap blocks are kept on the identity, so
    # a second derive of the same target from the same axiom polarizes
    # nothing and searches no swap block again
    polarized, swaps = [], []
    real_polarize, real_swap_sign = identities.polarize, identities._swap_sign

    def counting_polarize(ident):
        polarized.append(id(ident))
        return real_polarize(ident)

    def counting_swap_sign(coeffs, i, j):
        swaps.append((id(coeffs), i, j))
        return real_swap_sign(coeffs, i, j)

    monkeypatch.setattr(identities, "polarize", counting_polarize)
    monkeypatch.setattr(identities, "_swap_sign", counting_swap_sign)
    # fresh copies, so that no earlier test has prepared them
    target, axiom = (Identity(*catalog(name)._values())
                     for name in ("identity_1_2", "hom_malcev"))
    for k in (0, 3):
        result, pol = derive(target, [axiom], SearchBounds(k))
        assert isinstance(result, Certificate) and pol is target
    assert sorted(polarized) == sorted((id(target), id(axiom)))
    assert swaps and len(swaps) == len(set(swaps))


def test_certified_derive_cost_does_not_depend_on_k(monkeypatch):
    calls = count_substitute(monkeypatch)
    per_k = []
    for k in (0, 3):
        calls[0] = 0
        result, _ = derive(catalog("identity_1_2"), [catalog("hom_malcev")],
                           SearchBounds(k))
        assert isinstance(result, Certificate)
        per_k.append(calls[0])
    # the certificate uses weight-0 instances only: at most the 12 picks
    # of weight 0 (one per orbit of the x#1, x#2 swap) are ever substituted
    assert per_k[0] == per_k[1] <= 12


def test_first_instance_builds_no_further(monkeypatch):
    calls = count_substitute(monkeypatch)
    pol = polarize(catalog("hom_malcev"))
    insts = generate_instances(pol, ("w", "x", "y", "z"), SearchBounds(3))
    assert calls[0] == 0
    assert insts[0].substitution.images == ((1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0))
    assert calls[0] == 1  # the identity substitution is the first pick
    # len builds everything: the 4^4 picks of each of the 12 block
    # permutations that put x#1's block before x#2's
    assert len(insts) == len(list(insts)) and insts[-1] is list(insts)[-1]
    assert calls[0] == 12 * 4 ** 4


# -- graded enumeration ------------------------------------------------------

def named(text):
    if text == "identity_1_2 twist-free":
        stripped = strip_twist(catalog("identity_1_2"))
        return Identity(stripped.vars, stripped.poly, text)
    try:
        return catalog(text)
    except KeyError:
        return identity_from_dsl(text, text)


# targets that are not consequences of hom_malcev: each fails in a model
# of it (the Yau twist of m7_auto); hom_jacobi is the vacuous control
REFUTE_TARGETS = (
    "J(w*x,a(y),a(z))",
    "J(w*x,a(y),a(z)) + J(y*z,a(w),a(x))",
    "a2(w)*J(x,y,z)",
    "G(w,x,y,z)",
    "identity_1_2 twist-free",
    "hom_jacobi",
)

DIFFERENTIAL_CASES = [(t, ("hom_malcev",)) for t in REFUTE_TARGETS] + [
    ("identity_1_2", ("hom_malcev",)),
    ("hom_malcev", ("identity_1_2",)),
    ("eq_2_2", ("hom_jacobi", "hom_malcev")),
    ("eq_2_4", ("identity_1_2", "hom_malcev")),
    # ungraded malcev: every axiom's instances are enumerated
    ("identity_1_2", ("malcev", "hom_malcev")),
    ("eq_2_2", ("malcev", "hom_jacobi")),
]


def full_path(target, axioms, bounds):
    """Reference: span membership over every instance of every axiom."""
    target = target if target.is_multilinear else polarize(target)
    streams = []
    for axiom in axioms:
        ax = axiom if axiom.is_multilinear else polarize(axiom)
        if len(ax.vars) <= len(target.vars):
            streams.append(generate_instances(ax, target.vars, bounds))
    return span_membership(target, itertools.chain.from_iterable(streams)), target


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("target, axioms", DIFFERENTIAL_CASES)
def test_graded_derive_matches_full_enumeration(target, axioms, k):
    target, axioms = named(target), [named(a) for a in axioms]
    got, pol = derive(target, axioms, SearchBounds(k))
    want, pol_want = full_path(target, axioms, SearchBounds(k))
    assert pol == pol_want
    assert type(got) is type(want)
    if isinstance(want, NotInSpan):
        assert got.residual == want.residual
    else:
        assert got.to_json() == want.to_json()


def test_axiom_grades():
    for name in ("hom_malcev", "identity_1_2", "eq_2_2", "eq_2_3", "eq_2_4", "eq_2_5"):
        assert polarize(catalog(name)).grades == (3,) * 4, name
    assert catalog("hom_jacobi").grades == (2, 2, 2)
    assert polarize(catalog("malcev")).grades is None
    assert catalog("malcev").grades is None


PAPER_TARGETS = (
    "vars y,x,z; G(y,x,y,z)", "eq_2_2", "eq_2_3", "eq_2_4", "eq_2_5",
    "identity_1_2", "hom_malcev",
)


@pytest.mark.parametrize("axiom", ["hom_malcev", "identity_1_2", "hom_jacobi"])
def test_grade_filter_keeps_exactly_the_instances_in_a_component(axiom):
    # the graded stream is the full stream restricted to the instances
    # whose grade vector is a component of the target, in the same order
    axiom = polarize(catalog(axiom))
    full, kept, seen = {}, 0, 0
    for text in REFUTE_TARGETS + PAPER_TARGETS:
        target = polarize(named(text))
        if len(axiom.vars) > len(target.vars):
            continue
        components = target.components
        for k in range(3):
            bounds = SearchBounds(k)
            # picks and grades depend on variable positions, not names
            key = (len(target.vars), k)
            if key not in full:
                full[key] = list(generate_instances(axiom, target.vars, bounds))
            want = []
            for inst in full[key]:
                grade = inst.identity.components
                assert len(grade) == 1  # a graded axiom's instances are homogeneous
                if grade <= components:
                    want.append(inst.substitution.images)
            got = generate_instances(axiom, target.vars, bounds, components)
            assert [inst.substitution.images for inst in got] == want, (text, k)
            kept, seen = kept + len(want), seen + len(full[key])
    assert 0 < kept < seen  # the filter both keeps and drops instances


def test_not_in_span_derive_substitutes_only_matching_picks(monkeypatch):
    calls = count_substitute(monkeypatch)
    target = named("J(w*x,a(y),a(z))")
    result, _ = derive(target, [catalog("hom_malcev")], SearchBounds(3))
    assert isinstance(result, NotInSpan) and result.residual_monomials > 0
    # one pick per block assignment lands in the target's only component,
    # and 12 of the 24 assignments are first in their orbit of the x#1,
    # x#2 swap; the full enumeration substitutes 12 * 4^4 = 3072
    assert calls[0] == 12
    assert result.k_saturated == 0 and result.axioms_skipped == ()


def test_target_outside_every_component_substitutes_nothing(monkeypatch):
    calls = count_substitute(monkeypatch)
    target = named("identity_1_2 twist-free")
    assert len(target.components) == 9
    result, pol = derive(target, [catalog("hom_malcev")], SearchBounds(3))
    assert calls[0] == 0
    assert isinstance(result, NotInSpan)
    assert result.residual == target.poly == pol.poly


def test_ungraded_axiom_enumerates_everything(monkeypatch):
    calls = count_substitute(monkeypatch)
    target, axioms = named("J(w*x,a(y),a(z))"), [catalog("malcev"), catalog("hom_malcev")]
    result, _ = derive(target, axioms, K1)
    derived = calls[0]
    calls[0] = 0
    want, _ = full_path(target, axioms, K1)
    assert isinstance(result, NotInSpan) and isinstance(want, NotInSpan)
    # malcev and hom_malcev are both symmetric in x#1, x#2: 12 of the 24
    # block permutations each
    assert derived == calls[0] == 2 * 12 * 2 ** 4
    assert result.k_saturated is None


def test_derive_drops_variables_the_polynomials_lack():
    i12 = catalog("identity_1_2")
    padded = Identity(("v",) + i12.vars, identity_from_dsl(
        "vars v,w,x,y,z; J(w*x,a(y),a(z)) - J(w,y,z)*a2(x) - a2(w)*J(x,y,z)"
        " + 2*J(y*z,a(w),a(x))"
    ).poly, "padded")
    assert padded.degrees == (0, 1, 1, 1, 1)
    want, _ = derive(i12, [catalog("hom_malcev")], K0)
    result, target = derive(padded, [catalog("hom_malcev")], K0)
    assert target.vars == i12.vars and target.poly == i12.poly
    assert result.to_obj() == want.to_obj()
    # a freely vanishing axiom keeps no variable and builds no instance
    result, _ = derive(i12, [catalog("lemma_2_4_ii"), catalog("g_def")], K0)
    assert result.residual == i12.poly
    assert result.axioms_skipped == ("lemma_2_4_ii", "g_def")


def test_skipped_axioms_are_named():
    result, _ = derive(catalog("hom_jacobi"), [catalog("hom_jacobi"), catalog("hom_malcev")], K0)
    assert isinstance(result, Certificate)
    result, _ = derive(catalog("hom_jacobi"),
                       [catalog("hom_malcev"), catalog("identity_1_2")], K0)
    assert result.axioms_skipped == ("hom_malcev", "identity_1_2")
    assert result.k_saturated == 0
    # freely vanishing axioms come after the oversized ones
    result, _ = derive(catalog("hom_jacobi"),
                       [catalog("lemma_2_4_ii"), catalog("hom_malcev")], K0)
    assert result.axioms_skipped == ("hom_malcev", "lemma_2_4_ii")


def test_k_saturated_bounds_the_powers_that_matter(monkeypatch):
    calls = count_substitute(monkeypatch)
    # w has grade 4 against the axiom's 3, so picks need power <= 1 on w
    target, axioms = named("a(a2(w))*J(x,y,z)"), [catalog("hom_malcev")]
    runs = []
    for k in range(4):
        calls[0] = 0
        result, _ = derive(target, axioms, SearchBounds(k))
        runs.append((result.k_saturated, result.residual, calls[0]))
    assert runs[0][0] == 1 and runs[0][1:] != runs[1][1:]
    assert runs[1] == runs[2] == runs[3]
    # every grade of this target is below the axiom's: nothing to saturate
    result, _ = derive(named("(w*x)*(y*z)"), axioms, K0)
    assert result.k_saturated == 0


def test_ungraded_fallback_stays_lazy(monkeypatch):
    # malcev is ungraded, so derive enumerates every instance up to K; the
    # lazy stream still stops at the first pick, which certifies the
    # target (a full build at K=3 substitutes 6144 picks)
    calls = count_substitute(monkeypatch)
    malcev = catalog("malcev")
    for k in (0, 3):
        calls[0] = 0
        result, _ = derive(malcev, [malcev], SearchBounds(k))
        assert isinstance(result, Certificate)
        assert calls[0] == 1, k


# -- one reduction for the target and the instances ---------------------------

def scaled_identity(ident, c):
    return Identity(ident.vars, scaled(ident.poly, c), ident.name)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("target", REFUTE_TARGETS)
def test_residual_is_linear_in_the_target(target, k):
    target, axioms = named(target), [catalog("hom_malcev")]
    two_thirds = Fraction(2, 3)
    got, _ = derive(scaled_identity(target, two_thirds), axioms, SearchBounds(k))
    want, _ = derive(target, axioms, SearchBounds(k))
    assert isinstance(got, NotInSpan) and isinstance(want, NotInSpan)
    assert got.residual == scaled(want.residual, two_thirds)


@pytest.mark.parametrize("k", range(4))
def test_certificate_is_linear_in_the_target(k):
    half = scaled_identity(catalog("identity_1_2"), Fraction(1, 2))
    result, _ = derive(half, [catalog("hom_malcev")], SearchBounds(k))
    with open(GOLDEN / f"identity_1_2_K{k}.json") as fh:
        want = json.load(fh)
    got = result.rows_obj()
    assert [(r["axiom"], r["substitution"]) for r in got] == [
        (r["axiom"], r["substitution"]) for r in want
    ]
    assert [Fraction(r["coeff"]) for r in got] == [
        Fraction(r["coeff"]) / 2 for r in want
    ]


def assert_fresh(got, want):
    """A derive's (result, polarized target) equals a fresh derive's."""
    (got, got_target), (want, want_target) = got, want
    assert type(got) is type(want)
    assert got_target == want_target
    if isinstance(want, Certificate):
        assert got.to_json() == want.to_json()
        assert [i.identity for i, _ in got.rows] == [i.identity for i, _ in want.rows]
    else:
        assert got.residual == want.residual
        assert got.k_saturated == want.k_saturated
        assert got.axioms_skipped == want.axioms_skipped


def test_shared_streams_give_fresh_results(monkeypatch):
    # one spans dict across derives that share a span, differ in component
    # ((4,4,4,4) for the twisted eq_2_2, against (3,3,3,3)), in variables,
    # in K or in the axiom's polynomial alone, or take the ungraded path;
    # each result equals a fresh derive
    hom_malcev, malcev = catalog("hom_malcev"), catalog("malcev")
    # one sign changed, same name and variables
    impostor = identity_from_dsl(
        "vars x,y,z; J(a(x),a(y),x*z) + J(x,y,z)*a2(x)", "hom_malcev"
    )
    twisted = identity_from_dsl(
        "vars w,x,y,z; a(J(w*x,a(y),a(z)) + J(x*y,a(z),a(w))"
        " + J(y*z,a(w),a(x)) + J(z*w,a(x),a(y)))"
    )
    cases = [
        (catalog("eq_2_2"), [hom_malcev], K1),
        (identity_from_dsl("J(w*x,a(y),a(z))"), [hom_malcev], K1),
        (catalog("eq_2_2"), [hom_malcev], K1),
        (catalog("eq_2_2"), [impostor], K1),
        (twisted, [hom_malcev], K0),
        (twisted, [hom_malcev], K1),
        (identity_from_dsl("G(y,x,y,z)"), [hom_malcev], K1),
        (catalog("identity_1_2"), [malcev, hom_malcev], K1),
        (catalog("identity_1_2"), [hom_malcev], K1),
    ]
    fresh = [derive(*case) for case in cases]
    built = []
    real = consequence.generate_instances

    def counted(*args):
        built.append(args[0].name)
        return real(*args)

    monkeypatch.setattr(consequence, "generate_instances", counted)
    spans = {}
    for (target, axioms, bounds), want in zip(cases, fresh):
        assert_fresh(derive(target, axioms, bounds, spans), want)
    # eq_2_2, J(w*x,a(y),a(z)) and the graded identity_1_2 share one span;
    # the ungraded [malcev, hom_malcev] derive is one span over the
    # instances of both axioms
    assert len(spans) == 6 and len(built) == 7
    assert [type(r).__name__ for r, _ in fresh] == [
        "Certificate", "NotInSpan", "Certificate", "Certificate", "NotInSpan",
        "Certificate", "Certificate", "Certificate", "Certificate",
    ]


@pytest.mark.parametrize("k", range(4))
def test_span_results_do_not_depend_on_query_order(k):
    # the hom_malcev targets of verify-paper and four refute targets, asked
    # of one spans dict in order (NotInSpan on a span that certificates
    # have partly read) and reversed (certificates on a span read to the
    # end); every result equals a fresh derive
    bounds, axioms = SearchBounds(k), [catalog("hom_malcev")]
    targets = [named(t) for t in PAPER_TARGETS[:6] + REFUTE_TARGETS[:4]]
    fresh = [derive(t, axioms, bounds) for t in targets]
    assert {type(r) for r, _ in fresh} == {Certificate, NotInSpan}
    for order in (range(len(targets)), reversed(range(len(targets)))):
        spans, got = {}, {}
        for i in order:
            got[i] = derive(targets[i], axioms, bounds, spans)
        assert len(spans) == 2  # G(y,x,y,z) has its own variables
        for i, want in enumerate(fresh):
            assert_fresh(got[i], want)


def test_instance_dedup_is_exact():
    # the y<->z instance's coefficient ratios differ from the axiom's only
    # past a float's 53 bits, so a float dedup key would drop it
    ax = identity_from_dsl(
        "x*(y*z) + 9007199254740992*y*(z*x) + 9007199254740993*z*(x*y)"
    )
    assert len(list(generate_instances(ax.polarized, ax.vars, K0))) == 6
