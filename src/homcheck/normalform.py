"""Canonical normal forms in the free anticommutative multiplicative Hom-algebra.

A canonical monomial is a binary product tree whose leaves carry a
variable index and a twist power, encoded as nested tuples::

    leaf:    (var_index, alpha_power)        both ints
    product: (left, right)                   left < right strictly

The twisting map is fully pushed to the leaves (multiplicativity:
a(u*v) -> a(u)*a(v)), products with equal children vanish, and swapped
products pick up a sign, so two expressions are semantically equal over
a characteristic-0 field iff their MPoly maps coincide.

Monomial order: leaf count first; at equal count a leaf precedes any
product; leaves compare by (variable index, twist power); products
compare by (left, right) recursively.
"""

from __future__ import annotations

from fractions import Fraction

from .dsl import RawExpr

# Memo of mono_key; emptied when it reaches _KEY_CACHE_MAX entries so a
# long-lived process cannot grow it without bound.
_key_cache = {}
_KEY_CACHE_MAX = 1 << 16


def mono_key(mono):
    """Total-order sort key; comparing keys realizes the monomial order."""
    key = _key_cache.get(mono)
    if key is None:
        if isinstance(mono[0], int):
            key = (1, 0, mono[0], mono[1])
        else:
            kl, kr = mono_key(mono[0]), mono_key(mono[1])
            key = (kl[0] + kr[0], 1, kl, kr)
        if len(_key_cache) >= _KEY_CACHE_MAX:
            _key_cache.clear()
        _key_cache[mono] = key
    return key


def compare_monomials(m1, m2):
    """-1, 0 or 1 according to the total monomial order."""
    if m1 == m2:
        return 0
    return -1 if mono_key(m1) < mono_key(m2) else 1


def mono_leaves(mono):
    """Yield the (var, power) leaves left to right."""
    if isinstance(mono[0], int):
        yield mono
    else:
        yield from mono_leaves(mono[0])
        yield from mono_leaves(mono[1])


def canon(tree):
    """Reorder a product tree of canonical leaves into canonical form.

    Returns (sign, monomial) or None when the tree vanishes (some
    product has equal children).
    """
    if isinstance(tree[0], int):
        return 1, tree
    left = canon(tree[0])
    if left is None:
        return None
    right = canon(tree[1])
    if right is None:
        return None
    sl, ml = left
    sr, mr = right
    c = compare_monomials(ml, mr)
    if c == 0:
        return None
    if c < 0:
        return sl * sr, (ml, mr)
    return -sl * sr, (mr, ml)


def canon_sum(terms):
    """MPoly of a sum of (coefficient, product tree) pairs, each tree
    canonicalized by ``canon``; vanishing trees are dropped."""
    acc = {}
    for coeff, tree in terms:
        res = canon(tree)
        if res is None:
            continue
        sign, mono = res
        acc[mono] = acc.get(mono, 0) + sign * coeff
    return MPoly(acc)


def map_leaves(mono, fn):
    """The product tree of ``mono`` with every leaf (v, p) replaced by
    fn(v, p), the leaves visited left to right.  The tree is canonical
    only when fn keeps it so; ``canon`` restores that."""
    if isinstance(mono[0], int):
        return fn(*mono)
    return (map_leaves(mono[0], fn), map_leaves(mono[1], fn))


def shift_power(mono, k):
    """Apply the twisting map k times: add k to every leaf power.

    A uniform shift preserves canonical ordering, so the result is
    canonical whenever the input is.
    """
    if k == 0:
        return mono
    return map_leaves(mono, lambda v, p: (v, p + k))


class MPoly:
    """Map from canonical monomial to nonzero rational coefficient.

    Canonical: two MPolys are semantically equal iff their maps are
    identical.  Instances are treated as immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {m: c for m, c in (coeffs or {}).items() if c}

    @property
    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __len__(self):
        return len(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, MPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def sorted_terms(self):
        """(monomial, coefficient) pairs in monomial order."""
        return sorted(self.coeffs.items(), key=lambda kv: mono_key(kv[0]))

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return MPoly()
        return MPoly({m: c * v for m, v in self.coeffs.items()})

    def leading(self):
        """(monomial, coefficient) at the smallest monomial; None if zero."""
        if not self.coeffs:
            return None
        m = min(self.coeffs, key=mono_key)
        return m, self.coeffs[m]

    def __repr__(self):
        return f"MPoly({len(self.coeffs)} terms)"


def _push_twists(term, power):
    # raw term -> product tree over canonical (var, power) leaves
    tag = term[0]
    if tag == "var":
        return (term[1], power)
    if tag == "twist":
        return _push_twists(term[1], power + 1)
    return (_push_twists(term[1], power), _push_twists(term[2], power))


def normalize(expr):
    """Normal form of a RawExpr: twist pushdown, sign ordering, collection."""
    if isinstance(expr, MPoly):
        return expr
    if not isinstance(expr, RawExpr):
        raise TypeError(f"cannot normalize {type(expr).__name__}")
    return canon_sum((coeff, _push_twists(term, 0)) for coeff, term in expr.terms)


def linear_combination(parts):
    """Sum of coeff * vector over (coeff, vector) pairs, each vector a
    sparse dict key -> coefficient; zero entries are dropped."""
    acc = {}
    for coeff, vec in parts:
        for k, c in vec.items():
            acc[k] = acc.get(k, 0) + coeff * c
    return {k: c for k, c in acc.items() if c}


def poly_combine(parts):
    """Exact rational linear combination of MPolys."""
    return MPoly(linear_combination((coeff, poly.coeffs) for coeff, poly in parts))


def mono_degrees(mono, nvars):
    """Leaf count per variable (twist powers do not contribute)."""
    degs = [0] * nvars
    for v, _ in mono_leaves(mono):
        degs[v] += 1
    return tuple(degs)


def multidegree(poly, nvars):
    """Per-variable degrees if the poly is multihomogeneous, else None."""
    degs = None
    for mono in poly.coeffs:
        d = mono_degrees(mono, nvars)
        if degs is None:
            degs = d
        elif degs != d:
            return None
    return degs if degs is not None else (0,) * nvars


def poly_strip_twist(poly):
    """Set every leaf twist power to 0 and renormalize (alpha = Id)."""
    return canon_sum(
        (coeff, map_leaves(mono, lambda v, p: (v, 0)))
        for mono, coeff in poly.coeffs.items()
    )
