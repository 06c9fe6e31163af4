"""Canonical normal forms in the free anticommutative multiplicative Hom-algebra.

A canonical monomial is a binary product tree whose leaves carry a
variable index and a twist power, encoded as nested tuples that lead
with their leaf count::

    leaf:    (1, var_index, alpha_power)     all ints
    product: (n, left, right)                n leaves, left < right strictly

The twisting map is fully pushed to the leaves (multiplicativity:
a(u*v) -> a(u)*a(v)), products with equal children vanish, and swapped
products pick up a sign, so two expressions are semantically equal over
a characteristic-0 field iff their MPoly maps coincide.

Monomial order: leaf count first; at equal count a leaf precedes any
product; leaves compare by (variable index, twist power); products
compare by (left, right) recursively.  Tuple order is the monomial
order: the leading count settles different sizes, and at equal count
two leaves or two products compare their remaining entries.

The DSL parser (``dsl``) builds its raw terms in this encoding, with the
twist already on the leaves, so ``normalize`` is ``canon_sum``: sign
ordering and collection.  This module imports nothing from ``dsl``.
"""

from __future__ import annotations

from fractions import Fraction


def mono_leaves(mono):
    """Yield the (var, power) leaves left to right."""
    if mono[0] == 1:
        yield mono[1:]
    else:
        yield from mono_leaves(mono[1])
        yield from mono_leaves(mono[2])


def canon(tree):
    """Reorder a product tree of canonical leaves into canonical form.
    Every node of the tree must lead with its leaf count, which is kept.

    Returns (sign, monomial) or None when the tree vanishes (some
    product has equal children).
    """
    if tree[0] == 1:
        return 1, tree
    left = canon(tree[1])
    if left is None:
        return None
    right = canon(tree[2])
    if right is None:
        return None
    sl, ml = left
    sr, mr = right
    if ml < mr:
        return sl * sr, (tree[0], ml, mr)
    if mr < ml:
        return -sl * sr, (tree[0], mr, ml)
    return None


def canon_sum(terms):
    """MPoly of a sum of (coefficient, product tree) pairs, each tree
    canonicalized by ``canon``; vanishing trees are dropped."""
    acc = {}
    for coeff, tree in terms:
        res = canon(tree)
        if res is None:
            continue
        sign, mono = res
        # negate and store rather than multiply and add to 0: each is a
        # new Fraction
        if sign < 0:
            coeff = -coeff
        acc[mono] = acc[mono] + coeff if mono in acc else coeff
    return MPoly(acc)


def map_leaves(mono, fn):
    """The product tree of ``mono`` with every leaf (1, v, p) replaced by
    the monomial fn(v, p), the leaves visited left to right.  The tree is
    canonical only when fn keeps it so; ``canon`` restores that."""
    if mono[0] == 1:
        return fn(mono[1], mono[2])
    left, right = map_leaves(mono[1], fn), map_leaves(mono[2], fn)
    return (left[0] + right[0], left, right)


def shift_power(mono, k):
    """Apply the twisting map k times: add k to every leaf power.

    A uniform shift preserves canonical ordering, so the result is
    canonical whenever the input is.  The tree is rebuilt from an
    explicit stack rather than by recursion, because the parser shifts
    terms deep inside its own recursion.
    """
    if k == 0:
        return mono
    # a product (n, left, right) goes on the stack as n, left, right:
    # right is shifted first, so left's image is on top of done when n
    # comes off
    done, todo = [], [mono]
    while todo:
        node = todo.pop()
        if type(node) is int:
            done.append((node, done.pop(), done.pop()))
        elif node[0] == 1:
            done.append((1, node[1], node[2] + k))
        else:
            todo += node
    return done[0]


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
        return sorted(self.coeffs.items())

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return MPoly()
        return MPoly({m: c * v for m, v in self.coeffs.items()})

    def leading(self):
        """(monomial, coefficient) at the smallest monomial; None if zero."""
        return min(self.coeffs.items(), default=None)

    def __repr__(self):
        return f"MPoly({len(self.coeffs)} terms)"


class Record:
    """Base of the package's plain value classes.

    A subclass names its fields in ``_fields`` and sets them in its
    ``__init__``.  Records are equal when they have the same class and
    equal fields, and hash their fields, except in a class that sets
    ``__hash__ = None`` because its fields may change.
    """

    _fields = ()

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


def normalize(expr):
    """Normal form of a RawExpr, whose raw terms are product trees over
    canonical leaves: sign ordering and collection."""
    if isinstance(expr, MPoly):
        return expr
    return canon_sum(expr.terms)


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
        (coeff, map_leaves(mono, lambda v, p: (1, v, 0)))
        for mono, coeff in poly.coeffs.items()
    )
