"""Bounded consequence checking with auditable certificates.

A target identity is a consequence of axiom identities when it is an
exact rational linear combination of substitution instances of the
(multilinear) axioms.  Because the axioms are multilinear, substituting
sums adds nothing beyond substituting single monomials, so for a fixed
twist-power bound K the instance set is finite.  Membership in its span
is decided by exact integer-scaled Gaussian elimination over the
monomial basis; a success yields a Certificate whose replay reproduces
the target bit for bit, a failure is reported as NotInSpan *within the
given bounds* (never a non-derivability claim).

Determinism: instances are enumerated in a fixed order (set partitions
by restricted-growth string, block assignments in permutation order,
monomial choices in monomial order, then a stable sort by total twist
weight), deduplicated up to overall scaling keeping the first
occurrence, and eliminated with first-nonzero-in-monomial-order
pivoting.  Identical inputs therefore produce identical certificates.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

from .identities import Identity, Substitution, polarize, substitute
from .normalform import MPoly, canon, mono_key, mono_leaves, poly_combine

DEFAULT_MAX_ALPHA_POWER = 3


@dataclass(frozen=True)
class SearchBounds:
    """Finite search bounds: twist powers on substituted leaves stay <= K."""

    max_alpha_power: int = DEFAULT_MAX_ALPHA_POWER

    def __post_init__(self):
        if self.max_alpha_power < 0:
            raise ValueError("max_alpha_power must be >= 0")


@dataclass(frozen=True)
class Instance:
    """One substitution instance of a named (multilinear) axiom."""

    axiom: str
    axiom_vars: tuple
    substitution: Substitution
    identity: Identity

    def weight(self):
        return sum(
            p for m in self.substitution.images for _, p in mono_leaves(m)
        )


@dataclass(frozen=True)
class NotInSpan:
    """Negative result *within bounds*: the residual after elimination."""

    residual: MPoly

    @property
    def residual_monomials(self):
        return len(self.residual)


@dataclass
class Certificate:
    """Witness that target.poly equals a combination of axiom instances."""

    target: Identity
    rows: list  # of (Instance, Fraction coefficient)

    def replay(self):
        """Recombine the substituted axioms; must equal target.poly exactly."""
        return poly_combine((c, inst.identity.poly) for inst, c in self.rows)

    def to_obj(self):
        return [
            {
                "axiom": inst.axiom,
                "substitution": inst.substitution.as_strings(inst.axiom_vars),
                "coeff": str(c),
            }
            for inst, c in self.rows
        ]

    def to_json(self, **kw):
        return json.dumps(self.to_obj(), **kw)


# ---------------------------------------------------------------------------
# instance enumeration

def enumerate_monomials(var_indices, max_alpha_power):
    """All canonical monomials multilinear in exactly the given variables,
    every leaf twist power <= max_alpha_power, sorted in monomial order."""
    var_indices = tuple(var_indices)
    if not var_indices:
        raise ValueError("empty variable subset")
    if max_alpha_power < 0:
        raise ValueError("max_alpha_power must be >= 0")
    out = set()
    for powers in itertools.product(range(max_alpha_power + 1), repeat=len(var_indices)):
        leaves = tuple((v, p) for v, p in zip(var_indices, powers))
        for tree in _pairings(leaves):
            res = canon(tree)
            if res is not None:
                out.add(res[1])
    return sorted(out, key=mono_key)


def _pairings(leaves):
    # All binary product trees over the given leaves (distinct variables),
    # up to swapping factors: the first leaf is kept in the left factor.
    if len(leaves) == 1:
        yield leaves[0]
        return
    first, rest = leaves[0], leaves[1:]
    n = len(rest)
    for bits in itertools.product((0, 1), repeat=n):
        right = tuple(l for l, b in zip(rest, bits) if b)
        if not right:
            continue
        left = (first,) + tuple(l for l, b in zip(rest, bits) if not b)
        for lt in _pairings(left):
            for rt in _pairings(right):
                yield (lt, rt)


def _set_partitions(items, blocks):
    # Partitions of ``items`` into exactly ``blocks`` nonempty blocks,
    # enumerated via restricted-growth strings (deterministic order).
    n = len(items)
    if blocks > n:
        return

    def rec(i, rgs, used):
        if i == n:
            if used == blocks:
                part = [[] for _ in range(blocks)]
                for item, b in zip(items, rgs):
                    part[b].append(item)
                yield tuple(tuple(b) for b in part)
            return
        for b in range(min(used + 1, blocks)):
            yield from rec(i + 1, rgs + [b], max(used, b + 1))

    yield from rec(0, [], 0)


def generate_instances(axiom, target_vars, bounds=None):
    """All substitution instances of a multilinear axiom over the target
    variables, deduplicated up to overall rational scaling.

    For every partition of the target variables into len(axiom.vars)
    nonempty blocks, every assignment of blocks to axiom variables and
    every choice of a multilinear monomial per block, the axiom is
    substituted and renormalized.  Zero instances are dropped.
    """
    bounds = bounds or SearchBounds()
    target_vars = tuple(target_vars)
    n, b = len(target_vars), len(axiom.vars)
    if not axiom.is_multilinear:
        raise ValueError("axiom must be multilinear (polarize first)")
    if b > n:
        raise ValueError(
            f"axiom has {b} variables but the target only {n}"
        )
    name = axiom.name or "axiom"
    built = []
    for part in _set_partitions(range(n), b):
        choices = [
            enumerate_monomials(block, bounds.max_alpha_power) for block in part
        ]
        for perm in itertools.permutations(range(b)):
            # axiom variable i receives a monomial over block perm[i]
            for picks in itertools.product(*(choices[perm[i]] for i in range(b))):
                sub = Substitution(tuple(picks), target_vars)
                inst = Instance(name, axiom.vars, sub, substitute(axiom, sub))
                if not inst.identity.poly.is_zero:
                    built.append(inst)
    built.sort(key=lambda inst: inst.weight())  # stable: ties keep order
    out, seen = [], set()
    for inst in built:
        lead = inst.identity.poly.leading()[1]
        key = tuple(
            (m, c / lead) for m, c in inst.identity.poly.sorted_terms()
        )
        if key not in seen:
            seen.add(key)
            out.append(inst)
    return out


# ---------------------------------------------------------------------------
# exact span membership

def _content_reduce(vec, combo):
    g = 0
    for c in vec.values():
        g = math.gcd(g, c)
    for c in combo.values():
        g = math.gcd(g, c)
    if g > 1:
        for k in vec:
            vec[k] //= g
        for k in combo:
            combo[k] //= g


def span_membership(target, instances):
    """Decide whether target.poly lies in the rational span of the instances.

    Returns a Certificate on success, NotInSpan (with the unreachable
    residual) otherwise.  Elimination is exact: pivot rows are kept as
    content-reduced integer vectors whose pivot is their smallest
    monomial, so fully reducing against available pivots terminates and
    removes every reachable monomial.
    """
    pivots = {}  # pivot monomial -> (int row dict, int combo dict)
    residual = dict(target.poly.coeffs)  # Fraction coefficients
    tcombo = {}  # instance index -> Fraction

    def reduce_residual():
        while True:
            hits = [m for m in residual if m in pivots]
            if not hits:
                return
            m = min(hits, key=mono_key)
            row, combo = pivots[m]
            f = residual[m] / row[m]
            for mm, c in row.items():
                v = residual.get(mm, 0) - f * c
                if v:
                    residual[mm] = v
                else:
                    residual.pop(mm, None)
            for i, c in combo.items():
                v = tcombo.get(i, 0) + f * c
                if v:
                    tcombo[i] = v
                else:
                    tcombo.pop(i, None)

    reduce_residual()
    for idx, inst in enumerate(instances):
        if not residual:
            break
        poly = inst.identity.poly
        den = math.lcm(*(c.denominator for c in poly.coeffs.values()))
        vec = {m: int(c * den) for m, c in poly.coeffs.items()}
        combo = {idx: den}  # invariant: vec == sum combo_i * instance_i
        while True:
            hits = [m for m in vec if m in pivots]
            if not hits:
                break
            m = min(hits, key=mono_key)
            row, rcombo = pivots[m]
            a, lp = vec[m], row[m]
            for mm, c in vec.items():
                vec[mm] = c * lp
            for mm, c in row.items():
                v = vec.get(mm, 0) - a * c
                if v:
                    vec[mm] = v
                else:
                    vec.pop(mm, None)
            for i, c in combo.items():
                combo[i] = c * lp
            for i, c in rcombo.items():
                v = combo.get(i, 0) - a * c
                if v:
                    combo[i] = v
                else:
                    combo.pop(i, None)
            _content_reduce(vec, combo)
        if not vec:
            continue
        lead = min(vec, key=mono_key)
        if vec[lead] < 0:
            vec = {m: -c for m, c in vec.items()}
            combo = {i: -c for i, c in combo.items()}
        pivots[lead] = (vec, combo)
        if lead in residual:
            reduce_residual()

    if residual:
        return NotInSpan(MPoly(residual))
    rows = [
        (instances[i], c) for i, c in sorted(tcombo.items()) if c
    ]
    cert = Certificate(target, rows)
    if cert.replay() != target.poly:
        raise RuntimeError("certificate replay mismatch")
    return cert


def derive(target, axioms, bounds=None):
    """End-to-end consequence check: polarize target and axioms as
    needed, enumerate instances, decide span membership.

    ``axioms`` is a sequence of named Identities.  Axioms with more
    variables than the (polarized) target contribute no instances.
    Returns (result, polarized_target) where result is a Certificate or
    NotInSpan.
    """
    bounds = bounds or SearchBounds()
    if target.degrees is None:
        raise ValueError("target must be multihomogeneous")
    if not target.is_multilinear:
        target = polarize(target)
    instances = []
    for axiom in axioms:
        ax = axiom if axiom.is_multilinear else polarize(axiom)
        if len(ax.vars) > len(target.vars):
            continue
        instances.extend(generate_instances(ax, target.vars, bounds))
    return span_membership(target, instances), target
