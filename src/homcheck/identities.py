"""Identities as vanishing polynomials: substitution, polarization, catalog.

An Identity wraps an MPoly asserted to vanish under every substitution,
together with its ordered variable table.  The built-in catalog holds the
named identities of anticommutative Hom-algebra theory (Malcev identity,
Hom-Malcev identity, Hom-Jacobi identity, the four-variable companion
identity and the auxiliary lemma identities).  Their source is the DSL's
table of named expressions (``dsl.NAMED``), where each is written as
``vars params; body`` in display orientation LHS - RHS; the same text is
what a DSL call such as ``hom_malcev(y,z,x)`` expands, and ``catalog``
normalizes the body that call parsed.
"""

from __future__ import annotations

import functools
import itertools
import math

from .dsl import MAX_RAW_TERMS, NAMED, format_monomial, named, parse_expr
from .normalform import (
    Record,
    canon,
    canon_sum,
    map_leaves,
    multidegree,
    normalize,
    poly_strip_twist,
    shift_power,
)


# The default bound K on the twist powers of substituted leaves, for
# consequence.SearchBounds and the CLI's --K.
DEFAULT_MAX_ALPHA_POWER = 3


class Identity(Record):
    """An MPoly asserted to be identically zero, with its variable table."""

    _fields = ("vars", "poly", "name")

    def __init__(self, vars, poly, name=None):
        self.vars, self.poly, self.name = vars, poly, name

    @property
    def degrees(self):
        """Multidegree tuple, or None when not multihomogeneous."""
        return multidegree(self.poly, len(self.vars))

    @property
    def is_multilinear(self):
        return self.degrees == (1,) * len(self.vars)

    def __repr__(self):
        return f"Identity({self.name or '?'}, vars={self.vars}, {len(self.poly)} terms)"


def identity_from_dsl(text, name=None):
    expr = parse_expr(text)
    return Identity(expr.vars, normalize(expr), name)


class Substitution(Record):
    """Monomial images for every axiom variable, over a target variable table:
    ``images`` holds one canonical monomial per axiom variable position."""

    _fields = ("images", "target_vars")

    def __init__(self, images, target_vars):
        self.images, self.target_vars = images, target_vars

    def as_strings(self, axiom_vars):
        return {
            axiom_vars[i]: format_monomial(m, self.target_vars)
            for i, m in enumerate(self.images)
        }


def substitute(ident, sub):
    """Apply a monomial substitution and renormalize.

    Each leaf a^k(u) is replaced by the image of u with k extra twists on
    every leaf (sound because the twisting map is multiplicative and
    identities are universally quantified).
    """
    if len(sub.images) != len(ident.vars):
        raise ValueError(
            f"substitution maps {len(sub.images)} variables, "
            f"identity has {len(ident.vars)}"
        )
    images = sub.images
    return Identity(
        sub.target_vars,
        canon_sum(
            (coeff, map_leaves(mono, lambda v, p: shift_power(images[v], p)))
            for mono, coeff in ident.poly.coeffs.items()
        ),
    )


def rename(ident, mapping, target_vars):
    """Substitute variables for variables; mapping is name -> name."""
    index = {v: i for i, v in enumerate(target_vars)}
    images = tuple((1, index[mapping.get(v, v)], 0) for v in ident.vars)
    return substitute(ident, Substitution(images, tuple(target_vars)))


def swap_blocks(ident):
    """Blocks of variable positions under whose transpositions ``ident``
    is symmetric (sign 1) or antisymmetric (sign -1), as a tuple of
    (positions, sign) pairs; variables in no block are left out.

    Each transposition renames the variables of every monomial of the
    normal form, which is compared exactly with +poly and -poly, so a
    block is a symmetry of the free algebra.  Renaming is a bijection on
    canonical monomials (up to the sign ``canon`` finds), so no two
    renamed monomials meet, and the swap has sign t exactly when each
    renamed monomial, signed, has t times its coefficient in the
    polynomial.  t is read off the first monomial, and the check stops at
    the first monomial that does not match.  If (i j) and (j k) are
    symmetries, so is (i k) = (i j)(j k)(i j), and all three have one
    sign unless the polynomial is zero.  So the swaps form cliques: the
    block of its first position i is i with every j for which (i j) is a
    symmetry, and a position already in a block is not tried again.  The
    zero polynomial matches every swap with sign 1.
    """
    n = len(ident.vars)
    blocks, seen = [], set()
    for i in range(n):
        if i in seen:
            continue
        block, sign = [i], 1
        for j in range(i + 1, n):
            if j not in seen:
                s = _swap_sign(ident.poly.coeffs, i, j)
                if s is not None:
                    block.append(j)
                    sign = s
        if len(block) > 1:
            seen.update(block)
            blocks.append((tuple(block), sign))
    return tuple(blocks)


def _swap_sign(coeffs, i, j):
    # s when swapping variables i and j maps the polynomial to s times
    # itself (s = 1 or -1, and 1 for the zero polynomial), else None
    def leaf(v, p):
        return (1, j if v == i else i if v == j else v, p)

    sign = 1
    for k, (mono, c) in enumerate(coeffs.items()):
        s, image = canon(map_leaves(mono, leaf))
        d = coeffs.get(image)
        if k == 0 and d == -s * c:
            sign = -1
        if d != sign * s * c:
            return None
    return sign


def polarize(ident):
    """Full multilinearization over characteristic 0.

    Every variable of degree d > 1 is replaced by fresh variables
    name#1..name#d, keeping the component multilinear in all of them
    (equivalently: sum over all bijections between the d leaf
    occurrences and the fresh variables).  Fresh variables are ordered
    after all surviving original variables; a declared variable the
    polynomial lacks survives.  Re-identifying the fresh variables
    recovers d! times the original polynomial.

    The result has up to len(poly) * prod(d!) terms; an identity for
    which that exceeds MAX_RAW_TERMS raises ValueError before anything
    is built.
    """
    degs = ident.degrees
    if degs is None:
        raise ValueError("cannot polarize a non-multihomogeneous identity")
    repeated = [i for i, d in enumerate(degs) if d > 1]
    if not repeated:
        return ident
    size = len(ident.poly) * math.prod(math.factorial(degs[i]) for i in repeated)
    if size > MAX_RAW_TERMS:
        raise ValueError(
            f"identity too large to polarize: {size} terms "
            f"(at most {MAX_RAW_TERMS})"
        )
    new_vars = [v for i, v in enumerate(ident.vars) if degs[i] <= 1]
    remap = {}
    for i, v in enumerate(ident.vars):
        if degs[i] <= 1:
            remap[i] = len(remap)
    fresh = {}  # old index -> list of new indices
    for i in repeated:
        fresh[i] = list(range(len(new_vars), len(new_vars) + degs[i]))
        new_vars.extend(f"{ident.vars[i]}#{j + 1}" for j in range(degs[i]))

    def relabeled_terms():
        for mono, coeff in ident.poly.coeffs.items():
            for perms in itertools.product(
                *(itertools.permutations(fresh[i]) for i in repeated)
            ):
                # the k-th occurrence of a repeated variable, left to
                # right, becomes the k-th fresh variable of its perm
                occurrences = {i: iter(perm) for i, perm in zip(repeated, perms)}
                yield coeff, map_leaves(
                    mono,
                    lambda v, p: (
                        1, next(occurrences[v]) if v in occurrences else remap[v], p
                    ),
                )

    return Identity(tuple(new_vars), canon_sum(relabeled_terms()), ident.name)


def drop_unused(ident):
    """The identity over only the variables its polynomial contains, in
    their declared order; the zero identity keeps none."""
    kept = [i for i, d in enumerate(ident.degrees) if d]
    if len(kept) == len(ident.vars):
        return ident
    index = {v: k for k, v in enumerate(kept)}
    return Identity(
        tuple(ident.vars[i] for i in kept),
        canon_sum(
            (coeff, map_leaves(mono, lambda v, p: (1, index[v], p)))
            for mono, coeff in ident.poly.coeffs.items()
        ),
        ident.name,
    )


def strip_twist(ident):
    """Specialize the twisting map to the identity map (all powers -> 0)."""
    return Identity(ident.vars, poly_strip_twist(ident.poly), ident.name)


# ---------------------------------------------------------------------------
# catalog

# every named expression of the DSL but the functions J and G
CATALOG_NAMES = tuple(name for name in NAMED if name not in ("J", "G"))


@functools.cache
def catalog(name):
    """Return a built-in identity by name; raises KeyError when unknown.
    Its polynomial is the normal form of the DSL's parsed body."""
    if name not in CATALOG_NAMES:
        raise KeyError(f"unknown catalog identity {name!r}")
    body = named(name)[0]
    return Identity(body.vars, normalize(body), name)
