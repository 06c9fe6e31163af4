"""Bounded consequence checking with auditable certificates.

A target identity is a consequence of axiom identities when it is an
exact rational linear combination of substitution instances of the
(multilinear) axioms.  Because the axioms are multilinear, substituting
sums adds nothing beyond substituting single monomials, so for a fixed
twist-power bound K the instance set is finite.  Membership in its span
is decided by exact integer-scaled Gaussian elimination over the
monomial basis, one integer row reduction serving the target and the
instances alike; a success yields a Certificate whose replay reproduces
the target bit for bit, a failure is reported as NotInSpan *within the
given bounds* (never a non-derivability claim).

Instances are built lazily.  They come in a fixed order: by total twist
weight, ties in enumeration order (set partitions by restricted-growth
string, block assignments in permutation order, monomial choices in
monomial order), deduplicated up to overall scaling keeping the first
occurrence, and a block assignment that the axiom's own variable swaps
map onto an earlier one is never substituted, since the dedup would drop
its instances.  The monomials of a block are built canonical: each split of
its variables puts the part holding the first variable on the left, and
since the two factors share no variable, ordering them is their
canonical form, so no tree is normalized or met twice.  A first pass
sorts the picks (one monomial per axiom variable) into weight levels
without substituting anything; each level is then substituted and
deduplicated only when elimination reads that far.  Elimination pivots
on the first nonzero entry in monomial order and stops at the first
instance that empties the residual, so a certified derivation builds
only the instances up to its last certificate row, whatever K is.

Grading.  The twisting map pushes through products, so the number
``depth + twist power`` of each leaf survives normalization.  Most
axioms are graded: every occurrence of axiom variable u has the same
number c_u (3 for hom_malcev and the four-variable lemma identities, 2
for hom_jacobi; malcev is not graded).  Substituting a monomial m for u
gives each target variable v of m the number c_u + grade_m(v), so every
instance of a graded axiom is homogeneous, and the span splits into one
summand per grade vector.  The target's components are the grade vectors
of its monomials; only instances in a component can reduce the target,
and the residual modulo the span is unique.  Both are part of an
identity's prepared form: ``derive`` reads each polarized axiom's
``grades`` and the polarized target's ``components`` (see
``identities.Identity``), which are computed once per identity.  So when
every axiom is graded, ``derive`` enumerates only the picks that land in
a component.
For each block assignment that is one lookup: every component gives one
row of the grades each axiom variable's monomial must give its block,
and a pick is kept when its row of grades is one of them.  Residuals,
certificates and verdicts are those of the full enumeration, and a
NotInSpan result costs as many substitutions as there are such picks
in the block assignments substituted.  If any axiom is ungraded, every
axiom's instances are enumerated (an ungraded instance can mix a
component with another grade, which a graded instance outside the
components may cancel).  Identical inputs produce identical
certificates.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Sequence
from fractions import Fraction

from .dsl import format_expr
from .identities import (
    DEFAULT_MAX_ALPHA_POWER,
    Substitution,
    drop_unused,
    substitute,
)
from .normalform import MPoly, Record, leaf_grades, mono_leaves, poly_combine


class SearchBounds(Record):
    """Finite search bounds: twist powers on substituted leaves stay <= K."""

    _fields = ("max_alpha_power",)

    def __init__(self, max_alpha_power=DEFAULT_MAX_ALPHA_POWER):
        if max_alpha_power < 0:
            raise ValueError("max_alpha_power must be >= 0")
        self.max_alpha_power = max_alpha_power


class Instance(Record):
    """One substitution instance of a named (multilinear) axiom."""

    _fields = ("axiom", "axiom_vars", "substitution", "identity")

    def __init__(self, axiom, axiom_vars, substitution, identity):
        self.axiom, self.axiom_vars = axiom, axiom_vars
        self.substitution, self.identity = substitution, identity


def _weight(images):
    # total twist power on the leaves of the substituted monomials
    return sum(p for m in images for _, p in mono_leaves(m))


class NotInSpan(Record):
    """Negative result *within bounds*: the residual after elimination.

    ``target`` is the polarized target the residual is over, and
    ``max_alpha_power`` the K it was searched at (None when the result
    comes from ``span_membership``, which takes no bounds).  ``derive``
    also reports the K from which a larger bound enumerates the same
    instances (None when some axiom is ungraded) and the names of the
    axioms that contribute no instance: first those with more variables
    than the target, then those that vanish freely.

    ``to_obj`` is the document ``derive --format json`` prints and
    ``to_text`` the line ``derive`` prints.
    """

    _fields = ("residual", "k_saturated", "axioms_skipped", "target",
               "max_alpha_power")

    def __init__(self, residual, k_saturated=None, axioms_skipped=(), target=None,
                 max_alpha_power=None):
        self.residual, self.k_saturated = residual, k_saturated
        self.axioms_skipped, self.target = axioms_skipped, target
        self.max_alpha_power = max_alpha_power

    @property
    def residual_monomials(self):
        return len(self.residual)

    def to_obj(self):
        return {
            "status": "not_in_span",
            "max_alpha_power": self.max_alpha_power,
            "residual_monomials": self.residual_monomials,
            "residual": format_expr(self.residual, self.target.vars),
            "k_saturated": self.k_saturated,
            "axioms_skipped": list(self.axioms_skipped),
        }

    def to_text(self):
        return (f"not in span within bounds (K={self.max_alpha_power}); "
                f"residual has {self.residual_monomials} monomials")


class Certificate(Record):
    """Witness that target.poly equals a combination of axiom instances:
    ``rows`` is a list of (Instance, Fraction coefficient) pairs.

    ``rows_obj`` is the JSON list of the rows, which ``to_json`` dumps and
    the ``verify-paper`` report embeds; ``to_obj`` is the document
    ``derive --format json`` prints, the target with its rows, and
    ``to_text`` the rows as ``derive`` prints them.
    """

    _fields = ("target", "rows")
    __hash__ = None

    def __init__(self, target, rows):
        self.target, self.rows = target, rows

    def replay(self):
        """Recombine the substituted axioms; must equal target.poly exactly."""
        return poly_combine((c, inst.identity.poly) for inst, c in self.rows)

    def rows_obj(self):
        return [
            {
                "axiom": inst.axiom,
                "substitution": inst.substitution.as_strings(inst.axiom_vars),
                "coeff": str(c),
            }
            for inst, c in self.rows
        ]

    def to_obj(self):
        return {
            "status": "certificate",
            "target": format_expr(self.target.poly, self.target.vars),
            "certificate": self.rows_obj(),
        }

    def to_text(self):
        return self.to_json(indent=2)

    def to_json(self, **kw):
        return json.dumps(self.rows_obj(), **kw)


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
    return sorted(_monomials(var_indices, max_alpha_power))


def _monomials(var_indices, k):
    # Each canonical monomial once: a split keeps the first variable in
    # the left factor, and two factors over disjoint variables never agree,
    # so putting them in monomial order is the whole canonical form.
    first, rest = var_indices[0], var_indices[1:]
    if not rest:
        return [(1, first, p) for p in range(k + 1)]
    n, out = len(var_indices), []
    for bits in itertools.product((0, 1), repeat=len(rest)):
        right = tuple(itertools.compress(rest, bits))
        if right:
            left = (first,) + tuple(v for v in rest if v not in right)
            for lt, rt in itertools.product(_monomials(left, k), _monomials(right, k)):
                out.append((n, lt, rt) if lt < rt else (n, rt, lt))
    return out


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


class _LazySequence(Sequence):
    """A read-only sequence over an iterator that draws each item only when
    it is first asked for and keeps every item drawn.  Iterating and
    non-negative indexing draw no further than needed; ``len``, negative
    indices and slices draw everything."""

    def __init__(self, source):
        self._source = iter(source)
        self._items = []

    def _draw(self, count=None):
        # draw ``count`` more items, or all that remain when count is None
        self._items.extend(
            self._source if count is None else itertools.islice(self._source, count)
        )

    def __iter__(self):
        items = self._items
        for i in itertools.count():
            if i == len(items):
                self._draw(1)
                if i == len(items):
                    return
            yield items[i]

    def __len__(self):
        self._draw()
        return len(self._items)

    def __getitem__(self, index):
        if isinstance(index, slice) or index < 0:
            self._draw()
        elif index >= len(self._items):
            self._draw(index + 1 - len(self._items))
        return self._items[index]


def generate_instances(axiom, target_vars, bounds=None, components=None):
    """Substitution instances of a multilinear axiom over the target
    variables, deduplicated up to overall rational scaling, as a lazy
    sequence in weight order.

    For every partition of the target variables into len(axiom.vars)
    nonempty blocks, every assignment of blocks to axiom variables and
    every choice of a multilinear monomial per block, the axiom is
    substituted and renormalized.  Instances come by total twist weight,
    ties in that enumeration order; zero instances are dropped and of
    instances equal up to scaling only the first is kept.  Nothing is
    substituted until an instance is asked for, and then only up to it:
    the picks are first sorted into weight levels, and each level is
    substituted and deduplicated in turn as the sequence is read.

    An assignment is substituted only if it increases along the positions
    of each of the axiom's ``swap_blocks``.  If a permutation tau of the
    variables within the blocks maps the axiom f to +-f, the pick
    (perm o tau, picks o tau) gives +-1 times the instance of (perm,
    picks), with the same twist weight and the same grades.  Of the
    assignments perm o tau, permutations order first the one that is
    sorted within every block, so its instance is the one the scaling
    dedup keeps, and the others are dropped unbuilt: the sequence is that
    of substituting every assignment.  This substitutes 12 of the 24
    assignments for hom_malcev and malcev (symmetric in x#1, x#2), 6 of
    24 for identity_1_2 and eq_2_2 to eq_2_5 (two swap blocks of two), and
    1 of 6 for hom_jacobi (antisymmetric in all three variables).

    With ``components=None`` every instance comes.  Given the components
    of the polarized target over ``target_vars`` (its ``components``) and
    a graded axiom, only the picks whose instance lands in one of them
    come, in the same relative order; an ungraded axiom ignores
    ``components``.  Filtering is sound only when every axiom of the span
    is graded, which ``derive`` checks before it passes the components.
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
    grades = None if components is None else axiom.grades
    return _LazySequence(_instances(
        axiom, target_vars, bounds.max_alpha_power, grades, components
    ))


def _instances(axiom, target_vars, max_alpha_power, grades, components):
    # grades is None: every pick; else only picks landing in a component.
    # A block permutation is skipped unless it increases along each swap
    # block's positions: it is the first of its orbit, whose instances
    # are +-1 times its own (see generate_instances).
    steps = [
        (p, q)
        for positions, _ in axiom.swap_blocks
        for p, q in zip(positions, positions[1:])
    ]
    levels = {}  # twist weight -> picks, in enumeration order
    for part in _set_partitions(range(len(target_vars)), len(axiom.vars)):
        choices = [enumerate_monomials(block, max_alpha_power) for block in part]
        mono_weight = {m: _weight((m,)) for monos in choices for m in monos}
        if grades is not None:
            # a monomial's grades on its block, in variable order (the
            # order in which a block lists its variables)
            mono_grade = {
                m: tuple(g for _, g in sorted(leaf_grades(m)))
                for monos in choices for m in monos
            }
        for perm in itertools.permutations(range(len(part))):
            if any(perm[p] > perm[q] for p, q in steps):
                continue
            # axiom variable i receives a monomial over block perm[i]
            lists = [choices[p] for p in perm]
            if grades is not None:
                # one grade row per component: the grades each axiom
                # variable's monomial must give its block; a monomial
                # stays if its column allows it, a pick if its row is wanted
                wanted = {
                    tuple(tuple(s[v] - c for v in part[p])
                          for p, c in zip(perm, grades))
                    for s in components
                }
                columns = [{row[i] for row in wanted} for i in range(len(perm))]
                lists = [
                    [m for m in monos if mono_grade[m] in column]
                    for monos, column in zip(lists, columns)
                ]
            for picks in itertools.product(*lists):
                if grades is None or tuple(map(mono_grade.get, picks)) in wanted:
                    level = sum(map(mono_weight.get, picks))
                    levels.setdefault(level, []).append(picks)
    name = axiom.name or "axiom"
    seen = set()
    for weight in sorted(levels):
        for picks in levels.pop(weight):
            sub = Substitution(picks, target_vars)
            identity = substitute(axiom, sub)
            poly = identity.poly
            if poly.is_zero:
                continue
            lead = poly.leading()[1]
            key = tuple((m, Fraction(c, lead)) for m, c in poly.sorted_terms())
            if key not in seen:
                seen.add(key)
                yield Instance(name, axiom.vars, sub, identity)


# ---------------------------------------------------------------------------
# exact span membership

_TARGET = -1  # combo key of the target row, next to the instance indices


def _integer_row(poly, key):
    # poly with its denominators cleared, and the combo that records it
    den = math.lcm(*(c.denominator for c in poly.coeffs.values()))
    return {m: int(c * den) for m, c in poly.coeffs.items()}, {key: den}


def _content_reduce(vec, combo):
    g = math.gcd(*vec.values(), *combo.values())
    if g > 1:
        for d in (vec, combo):
            for k in d:
                d[k] //= g


def _scale_sub(d, lp, a, row):
    # d <- lp * d - a * row in place, dropping zero entries
    for k, c in d.items():
        d[k] = c * lp
    for k, c in row.items():
        v = d.get(k, 0) - a * c
        if v:
            d[k] = v
        else:
            d.pop(k, None)


def _reduce(vec, combo, pivots):
    """Reduce the integer row ``vec`` fully against the pivots, the least
    pivot monomial it contains first, keeping vec == sum combo_k * row_k."""
    while True:
        hits = [m for m in vec if m in pivots]
        if not hits:
            return
        m = min(hits)
        row, rcombo = pivots[m]
        a, lp = vec[m], row[m]
        _scale_sub(vec, lp, a, row)
        _scale_sub(combo, lp, a, rcombo)
        _content_reduce(vec, combo)


def span_membership(target, instances):
    """Decide whether target.poly lies in the rational span of the instances.

    Returns a Certificate on success, NotInSpan (with the unreachable
    residual) otherwise.  Elimination is exact, and one routine, _reduce,
    reduces the target and the instances alike: each is an integer row
    with the combo of inputs it sums (the target under key _TARGET,
    instances by index), and each pivot row's pivot is its smallest
    monomial, so fully reducing against available pivots terminates and
    removes every reachable monomial.  The target row is reduced after
    every new pivot it contains; divided by its _TARGET entry it is the
    residual.  ``instances`` is read in order and no further once the
    residual is empty.
    """
    pivots = {}  # pivot monomial -> (int row dict, int combo dict)
    residual, tcombo = _integer_row(target.poly, _TARGET)
    for idx, inst in enumerate(instances if residual else ()):
        vec, combo = _integer_row(inst.identity.poly, idx)
        _reduce(vec, combo, pivots)
        if not vec:
            continue
        lead = min(vec)
        if vec[lead] < 0:
            vec = {m: -c for m, c in vec.items()}
            combo = {i: -c for i, c in combo.items()}
        pivots[lead] = (vec, combo)
        if lead in residual:
            _reduce(residual, tcombo, pivots)
            if not residual:
                break  # certified: read no further instances

    scale = tcombo[_TARGET]
    if residual:
        residual = MPoly({m: Fraction(c, scale) for m, c in residual.items()})
        return NotInSpan(residual, target=target)
    rows = [
        (instances[i], Fraction(-c, scale))
        for i, c in sorted(tcombo.items()) if i != _TARGET
    ]
    cert = Certificate(target, rows)
    if cert.replay() != target.poly:
        raise RuntimeError("certificate replay mismatch")
    return cert


def derive(target, axioms, bounds=None, streams=None):
    """End-to-end consequence check: polarize target and axioms as
    needed, enumerate instances, decide span membership.

    ``axioms`` is a sequence of named Identities.  Each identity's
    ``polarized`` form is read, and then the target and each axiom lose
    the variables they do not contain, so a freely vanishing axiom
    contributes no instances, nor does an axiom with more variables than
    the target; both are named in ``axioms_skipped``.  The instances of
    all axioms, in axiom order, form one lazy sequence, so generation
    stops at the first instance that certifies the target.  When every
    remaining axiom is graded, each enumerates only the picks that land
    in a component of the polarized target; otherwise all instances up
    to K are enumerated.  Either way the result is the same.

    ``streams``, when given, is a dict the caller owns, in which each
    axiom's lazy instance sequence is kept under everything that
    sequence depends on: the prepared axiom (an Identity hashes its
    variables, polynomial and name), the target's variables, its
    ``components`` (None on the ungraded path) and K.  Derives passed the
    same dict then read one sequence, each only as far as it needs, and
    get the results a fresh enumeration gives.  A derive that raised may
    leave a sequence cut short, so drop the dict after an exception.

    Returns (result, polarized_target) where result is a Certificate or
    NotInSpan whose ``target`` is that same polarized target; a NotInSpan
    also carries K as ``max_alpha_power``, ``k_saturated`` (None on the
    ungraded path) and ``axioms_skipped``.  Either result renders itself:
    ``to_obj()`` is the JSON document ``derive --format json`` prints and
    ``to_text()`` the text ``derive`` prints.
    """
    bounds = bounds or SearchBounds()
    if target.degrees is None:
        raise ValueError("target must be multihomogeneous")
    target = drop_unused(target.polarized)
    used, oversized, vanishing = [], [], []
    for axiom in axioms:
        ax = drop_unused(axiom.polarized)
        if len(ax.vars) > len(target.vars):
            oversized.append(ax.name or "axiom")
        elif ax.poly.is_zero:
            vanishing.append(ax.name or "axiom")
        else:
            used.append(ax)
    grades = [ax.grades for ax in used]
    graded = None not in grades
    components = target.components if graded else None
    lazy = []
    for ax in used:
        key = (ax, target.vars, components, bounds.max_alpha_power)
        stream = None if streams is None else streams.get(key)
        if stream is None:
            stream = generate_instances(ax, target.vars, bounds, components)
            if streams is not None:
                streams[key] = stream
        lazy.append(stream)
    instances = _LazySequence(itertools.chain.from_iterable(lazy))
    result = span_membership(target, instances)
    if isinstance(result, NotInSpan):
        k_saturated = None
        if graded:
            # a kept monomial for u carries power <= s_v - c_u on v
            k_saturated = max([0] + [
                s_v - c_u for s in components for s_v in s
                for g in grades for c_u in g
            ])
        result = NotInSpan(result.residual, k_saturated,
                           tuple(oversized + vanishing), target,
                           bounds.max_alpha_power)
    return result, target
