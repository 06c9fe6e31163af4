"""Exact evaluation in finite-dimensional Hom-algebras given by structure
constants, plus the twisting construction turning a Malcev algebra into a
Hom-Malcev algebra.

An algebra is an anticommutative product on basis e_1..e_n, stored as
rational constants c[i][j][k] for i < j only (e_j*e_i = -e_i*e_j,
e_i*e_i = 0), together with an n x n rational twist matrix.  Elements
are sparse coefficient vectors.  Identity checks polarize first and then
evaluate on basis tuples, which is complete by multilinearity over a
characteristic-0 field.

The sweep visits one basis tuple per orbit of the identity's variable
swaps: where the normal form is symmetric or antisymmetric under every
transposition of a block of variables, only tuples whose indices rise
along the block are evaluated (strictly, in an antisymmetric block).
It clears denominators once, so it multiplies integer structure
constants.  By bilinearity, sum_m w_m*(A*B_m) = A*(sum_m w_m*B_m), so it
groups the top monomials by their first child A and, at each tuple,
does one product per distinct A: A times its partner sum, multiplied
straight into the tuple's residual.  Each partner sum and each product
node below the top has a table indexed by the basis indices of only its
own variables, so one over variable set S is computed at most dim^|S|
times, not once per tuple.

The sweep evaluates the identity's normal form, and normalizing pushes
the twist through products, a(u*v) -> a(u)*a(v).  Its verdict is about
the identity as written only when the twist is multiplicative, so
``homcheck check`` refuses any other algebra.

JSON schema (rationals as "p/q" or integer strings; omitted (i,j)
pairs mean zero product; indices are 1-based)::

    { "dim": n, "basis": [names],
      "product": [ { "i": 1, "j": 2, "out": { "3": "1" } }, ... ],
      "twist": [[row of rationals], ...],
      "require_multiplicative": bool }
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from importlib import resources

from .identities import polarize, swap_blocks
from .normalform import mono_leaves

BUNDLED = ("cross3", "cross3_rot", "m7", "m7_auto", "abelian4")


class AlgebraError(ValueError):
    """Schema or multiplicativity violation in an algebra document."""


@dataclass
class AlgebraSpec:
    """Anticommutative algebra with a twisting map, over exact rationals."""

    dim: int
    basis: tuple
    product: dict  # (i, j) with i < j -> {k: Fraction}, 0-based
    twist: tuple   # matrix rows, tuple of tuples of Fraction
    name: str = None
    twist_cols: tuple = field(init=False, repr=False)
    product_table: tuple = field(init=False, repr=False)

    def __post_init__(self):
        cols = []
        for j in range(self.dim):
            col = {r: self.twist[r][j] for r in range(self.dim) if self.twist[r][j]}
            cols.append(col)
        self.twist_cols = tuple(cols)
        # product_table[i][j]: the (k, c) pairs of e_i*e_j, signed for i > j
        rows = [[()] * self.dim for _ in range(self.dim)]
        for (i, j), out in self.product.items():
            rows[i][j] = tuple(out.items())
            rows[j][i] = tuple([(k, -c) for k, c in out.items()])
        self.product_table = tuple(map(tuple, rows))

    def basis_element(self, i):
        return {i: Fraction(1)}

    def is_multiplicative(self):
        """First basis pair violating a(u*v) = a(u)*a(v), or None."""
        return self._first_bad_pair

    @cached_property
    def _first_bad_pair(self):
        # computed once: loading and checking both ask
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                lhs = apply_twist(self, self.product.get((i, j), {}))
                rhs = multiply(self, self.twist_cols[i], self.twist_cols[j])
                if lhs != rhs:
                    return (i + 1, j + 1)
        return None


def _fraction(value):
    if isinstance(value, bool):
        raise AlgebraError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise AlgebraError(f"bad rational {value!r}: {exc}") from exc
    raise AlgebraError(f"expected a rational string, got {value!r}")


def load_algebra(doc, name=None):
    """Validate a parsed JSON document into an AlgebraSpec."""
    if not isinstance(doc, dict):
        raise AlgebraError("algebra document must be a JSON object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise AlgebraError("'dim' must be a positive integer")
    basis = doc.get("basis", [f"e{i + 1}" for i in range(dim)])
    if not isinstance(basis, list) or len(basis) != dim:
        raise AlgebraError("'basis' must list one name per dimension")
    product = {}
    entries = doc.get("product", [])
    if not isinstance(entries, list):
        raise AlgebraError("'product' must be a list of entries")
    for entry in entries:
        if (
            not isinstance(entry, dict)
            or not {"i", "j", "out"} <= set(entry)
            or not isinstance(entry["out"], dict)
        ):
            raise AlgebraError(f"bad product entry {entry!r}")
        i, j = entry["i"], entry["j"]
        if not (isinstance(i, int) and isinstance(j, int) and 1 <= i < j <= dim):
            raise AlgebraError(
                f"product entry needs 1 <= i < j <= {dim}, got i={i}, j={j}"
            )
        if (i - 1, j - 1) in product:
            raise AlgebraError(f"duplicate product entry for ({i},{j})")
        out = {}
        for k, c in entry["out"].items():
            try:
                ki = int(k)
            except ValueError:
                raise AlgebraError(
                    f"product target index {k!r} is not an integer"
                ) from None
            if not 1 <= ki <= dim:
                raise AlgebraError(f"product target index {k} out of range")
            cf = _fraction(c)
            if cf:
                out[ki - 1] = cf
        product[(i - 1, j - 1)] = out
    twist_doc = doc.get("twist")
    if (
        not isinstance(twist_doc, list)
        or len(twist_doc) != dim
        or any(not isinstance(row, list) or len(row) != dim for row in twist_doc)
    ):
        raise AlgebraError(f"'twist' must be a {dim}x{dim} matrix")
    twist = tuple(tuple(_fraction(c) for c in row) for row in twist_doc)
    spec = AlgebraSpec(dim, tuple(basis), product, twist, name or doc.get("name"))
    if doc.get("require_multiplicative", False):
        require_multiplicative(spec)
    return spec


def require_multiplicative(spec):
    """Raise AlgebraError unless the twist is multiplicative."""
    bad = spec.is_multiplicative()
    if bad is not None:
        raise AlgebraError(f"twist is not an endomorphism: fails on basis pair {bad}")


def load_algebra_file(path):
    """Load from a JSON file path, or from the bundled catalog by name."""
    import os

    if not os.path.exists(path):
        stem = os.path.splitext(os.path.basename(str(path)))[0]
        if stem in BUNDLED:
            data = resources.files("homcheck.data").joinpath(f"{stem}.json")
            return load_algebra(json.loads(data.read_text()), stem)
        raise FileNotFoundError(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise AlgebraError(f"invalid JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise AlgebraError(f"cannot read {path}: {exc.strerror}") from exc
    return load_algebra(doc, name=str(path))


def dump_algebra(spec):
    """Inverse of load_algebra, as a JSON-serializable document."""
    return {
        "dim": spec.dim,
        "basis": list(spec.basis),
        "product": [
            {
                "i": i + 1,
                "j": j + 1,
                "out": {str(k + 1): str(c) for k, c in sorted(out.items())},
            }
            for (i, j), out in sorted(spec.product.items())
            if out
        ],
        "twist": [[str(c) for c in row] for row in spec.twist],
        "require_multiplicative": True,
    }


# ---------------------------------------------------------------------------
# element arithmetic (elements are sparse dicts index -> coefficient)

def _multiply_into(acc, table, u, v):
    """acc += u*v over a signed product table (AlgebraSpec.product_table).

    The one product kernel: ``multiply`` wraps it, and the concrete sweep
    accumulates its top products straight into the tuple's residual.
    Zero coefficients stay in acc.
    """
    for i, ci in u.items():
        row = table[i]
        for j, cj in v.items():
            for k, c in row[j]:
                acc[k] = acc.get(k, 0) + ci * cj * c


def multiply(spec, u, v):
    """Bilinear extension of the structure constants."""
    out = {}
    _multiply_into(out, spec.product_table, u, v)
    return {k: c for k, c in out.items() if c}


def apply_twist(spec, u):
    out = {}
    for j, cj in u.items():
        for r, c in spec.twist_cols[j].items():
            out[r] = out.get(r, 0) + cj * c
    return {k: c for k, c in out.items() if c}


def element_add(parts):
    out = {}
    for coeff, u in parts:
        for k, c in u.items():
            out[k] = out.get(k, 0) + coeff * c
    return {k: c for k, c in out.items() if c}


def _eval_mono(spec, mono, twisted, tables, tup):
    """Evaluate a canonical monomial where variable v takes the element
    indexed tup[v]: its leaf (v, p) is twisted[p][tup[v]].

    tables maps product nodes to (variables, table).  Such a node's value
    is kept in table at the mixed-radix number of tup's entries for those
    variables, computed on first use.  Other product nodes are computed
    at every call.
    """
    if isinstance(mono[0], int):
        return twisted[mono[1]][tup[mono[0]]]
    entry = tables.get(mono)
    if entry is not None:
        variables, table = entry
        slot = 0
        for v in variables:
            slot = slot * spec.dim + tup[v]
        if table[slot] is not None:
            return table[slot]
    u = multiply(
        spec,
        _eval_mono(spec, mono[0], twisted, tables, tup),
        _eval_mono(spec, mono[1], twisted, tables, tup),
    )
    if entry is not None:
        table[slot] = u
    return u


def eval_poly(spec, poly, values):
    """Evaluate an MPoly; values[i] is the element for var i."""
    # twisted[p][i] is a^p(values[i]), and variable i takes index i
    twisted = [list(values)]
    for _ in range(max((p for m in poly.coeffs for _, p in mono_leaves(m)), default=0)):
        twisted.append([apply_twist(spec, u) for u in twisted[-1]])
    tup = range(len(values))
    return element_add(
        (c, _eval_mono(spec, m, twisted, {}, tup)) for m, c in poly.coeffs.items()
    )


def eval_raw(spec, expr, values):
    """Evaluate a RawExpr directly (without normalizing first)."""

    def term(t):
        tag = t[0]
        if tag == "var":
            return values[t[1]]
        if tag == "twist":
            return apply_twist(spec, term(t[1]))
        return multiply(spec, term(t[1]), term(t[2]))

    return element_add((c, term(t)) for c, t in expr.terms)


# ---------------------------------------------------------------------------
# identity checking and the twisting construction

@dataclass(frozen=True)
class Counterexample:
    """First basis tuple (1-based) where the polarized identity fails."""

    variables: tuple
    tuple_indices: tuple
    residual: dict

    def describe(self, spec):
        assignment = ", ".join(
            f"{v} = {spec.basis[i - 1]}"
            for v, i in zip(self.variables, self.tuple_indices)
        )
        value = " + ".join(
            f"{c}*{spec.basis[k]}" if c != 1 else spec.basis[k]
            for k, c in sorted(self.residual.items())
        )
        return f"{assignment} -> {value}"


def _times(c, d):
    """The rational c times d, as an int; d is a multiple of c's denominator."""
    return c.numerator * (d // c.denominator)


def check_identity_concrete(spec, ident):
    """Evaluate the polarized identity on basis tuples, one per orbit of
    its variable swaps.

    Returns None when the identity holds, otherwise the Counterexample
    at the first failing tuple in lexicographic tuple order.  What is
    evaluated is the normal form, which assumes a(u*v) = a(u)*a(v); the
    verdict is about the identity as written only when spec's twist is
    multiplicative (``spec.is_multiplicative()`` is None).

    ``swap_blocks`` finds the blocks of variables under whose
    transpositions the normal form f is symmetric or antisymmetric; it
    compares exact normal forms, so each block is a symmetry of the free
    algebra and not of this one algebra only.  Within each block, taken
    left to right, a tuple is visited only if its indices do not
    decrease, or strictly increase in an antisymmetric block: the
    lexicographically least tuple of its orbit.  This cannot change the
    result.  The sweep evaluates f itself, and the normal form uses only
    anticommutativity, so f(s t) = +-f(t) for every swap s of a block in
    every anticommutative algebra, multiplicative or not.  The failing
    tuples are therefore a union of orbits, and the least failing tuple
    is the least of its orbit, so it is visited and its residual is
    computed as before.  A tuple with equal indices on an antisymmetric
    pair gives f = -f, so f = 0 over the rationals, and it is skipped.
    A declared variable that f does not contain takes only index 0: f
    does not depend on it, so the least failing tuple has index 0 there.

    The sweep runs in integers.  The product constants are scaled by dp
    and the twist by dt, the least common multiples of their
    denominators, so a monomial with L leaves and twist powers summing
    to P evaluates to dp^(L-1) * dt^P times its true value; each term's
    coefficient absorbs that factor into an integer weight over one
    common denominator.

    The top monomials are grouped by their first child: the product is
    bilinear, so sum_m w_m*(A*B_m) = A*P_A with the partner sum
    P_A = sum_m w_m*B_m over the monomials whose first child is A.  The
    B_m all contain the variables that A lacks, so P_A is a node over
    those, with a table like any other.  At each visited tuple the sweep
    multiplies each A by P_A straight into the residual: 5 products for
    hom_malcev or identity_1_2 instead of 8 or 9.  Each partner sum and
    each product node below the top of a monomial has a table with one
    slot per assignment of basis indices to the variables it contains,
    filled on first use, so one over variable set S is computed at most
    dim^|S| times.  A partner's table holds its parts' values, so the
    parts themselves get none.
    """
    ident = ident if ident.is_multilinear else polarize(ident)
    terms = ident.poly.sorted_terms()
    dp = math.lcm(
        *(c.denominator for out in spec.product.values() for c in out.values())
    )
    dt = math.lcm(*(c.denominator for row in spec.twist for c in row))
    ispec = AlgebraSpec(
        spec.dim,
        spec.basis,
        {
            ij: {k: _times(c, dp) for k, c in out.items()}
            for ij, out in spec.product.items()
        },
        tuple(tuple(_times(c, dt) for c in row) for row in spec.twist),
    )
    leaf_lists = [list(mono_leaves(mono)) for mono, _ in terms]
    scales = [
        dp ** (len(leaves) - 1) * dt ** sum(p for _, p in leaves)
        for leaves in leaf_lists
    ]
    den = math.lcm(*(c.denominator * s for (_, c), s in zip(terms, scales)))
    weighted = [(_times(c, den // s), mono) for (mono, c), s in zip(terms, scales)]
    # group the top monomials A*B by their first child A (None for a
    # leaf monomial, which has none): sum_A A * (sum of w*B)
    groups = {}
    for w, mono in weighted:
        first = None if isinstance(mono[0], int) else mono[0]
        groups.setdefault(first, []).append((w, mono if first is None else mono[1]))
    top = []
    for first, parts in groups.items():
        variables = sorted({v for _, m in parts for v, _ in mono_leaves(m)})
        top.append((first, parts, variables, [None] * spec.dim ** len(variables)))
    # the partner tables hold their parts' values, so the parts need none
    tables = {}
    below_top = [first for first in groups if first is not None] + [
        child for parts in groups.values() for _, m in parts
        if not isinstance(m[0], int) for child in m
    ]
    while below_top:
        node = below_top.pop()
        if not isinstance(node[0], int) and node not in tables:
            variables = sorted({v for v, _ in mono_leaves(node)})
            tables[node] = (variables, [None] * spec.dim ** len(variables))
            below_top.extend(node)
    # twisted[p][i] is dt^p * a^p(e_i)
    twisted = [[{i: 1} for i in range(spec.dim)]]
    for _ in range(max((p for leaves in leaf_lists for _, p in leaves), default=0)):
        twisted.append([apply_twist(ispec, u) for u in twisted[-1]])
    # (p, q, gap): the index at position q must exceed the one at p by
    # at least gap, for consecutive positions p < q of one block
    steps = [
        (p, q, 1 if sign < 0 else 0)
        for positions, sign in swap_blocks(ident)
        for p, q in zip(positions, positions[1:])
    ]
    ranges = [range(spec.dim if d else 1) for d in ident.degrees]
    for tup in itertools.product(*ranges):
        if any(tup[q] - tup[p] < gap for p, q, gap in steps):
            continue
        value = _residual_at(ispec, top, twisted, tables, tup)
        if any(value.values()):
            residual = {k: Fraction(c, den) for k, c in value.items() if c}
            return Counterexample(ident.vars, tuple(i + 1 for i in tup), residual)
    return None


def _residual_at(spec, top, twisted, tables, tup):
    """The sweep's integer value at tup: each first child times its
    partner sum, multiplied straight into one vector."""
    value = {}
    for first, parts, variables, table in top:
        slot = 0
        for v in variables:
            slot = slot * spec.dim + tup[v]
        partner = table[slot]
        if partner is None:
            partner = table[slot] = _partner_sum(spec, parts, twisted, tables, tup)
        if first is None:  # leaf monomials: the partner sum is the value
            value.update(partner)
        else:
            first_value = _eval_mono(spec, first, twisted, tables, tup)
            _multiply_into(value, spec.product_table, first_value, partner)
    return value


def _partner_sum(spec, parts, twisted, tables, tup):
    """The sum of w*B over the (w, B) in parts, each product B multiplied
    straight into the sum."""
    acc = {}
    for w, mono in parts:
        if isinstance(mono[0], int):
            for k, c in _eval_mono(spec, mono, twisted, tables, tup).items():
                acc[k] = acc.get(k, 0) + w * c
        else:
            left = _eval_mono(spec, mono[0], twisted, tables, tup)
            if w != 1:
                left = {k: w * c for k, c in left.items()}
            right = _eval_mono(spec, mono[1], twisted, tables, tup)
            _multiply_into(acc, spec.product_table, left, right)
    return {k: c for k, c in acc.items() if c}


def yau_twist(spec):
    """Twisted algebra: same twist map, product composed with it.

    Requires the twist to be a multiplicative endomorphism of the
    original product; the result then satisfies the Hom-Malcev identity
    whenever the original is a Malcev algebra.
    """
    require_multiplicative(spec)
    product = {}
    for (i, j), out in spec.product.items():
        new = apply_twist(spec, out)
        if new:
            product[(i, j)] = new
    return AlgebraSpec(
        spec.dim,
        spec.basis,
        product,
        spec.twist,
        f"{spec.name}~twisted" if spec.name else None,
    )
