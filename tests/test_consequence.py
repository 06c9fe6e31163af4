import itertools
import json
import subprocess
import sys

import pytest
from fractions import Fraction

from homcheck import consequence
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
    Substitution,
    catalog,
    identity_from_dsl,
    polarize,
    substitute,
)
from homcheck.normalform import MPoly, canon, mono_key, poly_combine

from conftest import child_env

K0 = SearchBounds(0)
K1 = SearchBounds(1)


def test_enumerate_single_variable():
    assert enumerate_monomials((0,), 2) == [(0, 0), (0, 1), (0, 2)]


def test_enumerate_two_variables_k0():
    assert enumerate_monomials((0, 1), 0) == [((0, 0), (1, 0))]


def test_enumerate_three_variables_k0_against_bracketing_oracle():
    # oracle: canonicalize all 12 ordered full bracketings of x, y, z
    leaves = [(0, 0), (1, 0), (2, 0)]
    oracle = set()
    for a, b, c in itertools.permutations(leaves):
        for tree in (((a, b), c), (a, (b, c))):
            res = canon(tree)
            if res is not None:
                oracle.add(res[1])
    got = enumerate_monomials((0, 1, 2), 0)
    assert got == sorted(oracle, key=mono_key)
    assert len(got) == 3


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
    weights = [inst.weight() for inst in insts]
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
    built.sort(key=Instance.weight)
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


def count_substitute(monkeypatch):
    calls = [0]

    def counting(ident, sub):
        calls[0] += 1
        return substitute(ident, sub)

    monkeypatch.setattr(consequence, "substitute", counting)
    return calls


def test_certified_derive_cost_does_not_depend_on_k(monkeypatch):
    calls = count_substitute(monkeypatch)
    per_k = []
    for k in (0, 3):
        calls[0] = 0
        result, _ = derive(catalog("identity_1_2"), [catalog("hom_malcev")],
                           SearchBounds(k))
        assert isinstance(result, Certificate)
        per_k.append(calls[0])
    # the certificate uses weight-0 instances only: at most the 4! = 24
    # picks of weight 0 are ever substituted
    assert per_k[0] == per_k[1] <= 24


def test_first_instance_builds_no_further(monkeypatch):
    calls = count_substitute(monkeypatch)
    pol = polarize(catalog("hom_malcev"))
    insts = generate_instances(pol, ("w", "x", "y", "z"), SearchBounds(3))
    assert calls[0] == 0
    assert insts[0].substitution.images == ((0, 0), (1, 0), (2, 0), (3, 0))
    assert calls[0] == 1  # the identity substitution is the first pick
    # len builds everything: every one of the 4! * 4^4 picks
    assert len(insts) == len(list(insts)) and insts[-1] is list(insts)[-1]
    assert calls[0] == 24 * 4 ** 4
