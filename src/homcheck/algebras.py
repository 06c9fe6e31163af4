"""Exact evaluation in finite-dimensional Hom-algebras given by structure
constants, plus the twisting construction turning a Malcev algebra into a
Hom-Malcev algebra.

An algebra is an anticommutative product on basis e_1..e_n, stored as
rational constants c[i][j][k] for i < j only (e_j*e_i = -e_i*e_j,
e_i*e_i = 0), together with an n x n rational twist matrix.  Elements
are sparse coefficient vectors.  Identity checks polarize first and then
evaluate on basis tuples, which is complete by multilinearity over a
characteristic-0 field.

The sweep visits basis tuples modulo the identity's variable swaps and
the algebra's declared symmetries, in integers.  The identity is one
tree of nodes, each a leaf or a weighted sum over one variable set with
one product per distinct first child; every node below the root is
tabulated on the basis indices of its own variables, so it is computed
at most dim^|S| times for variable set S, not once per tuple.

The sweep evaluates the identity's normal form, and normalizing pushes
the twist through products, a(u*v) -> a(u)*a(v).  Its verdict is about
the identity as written only when the twist is multiplicative, so
``homcheck check`` refuses any other algebra.

JSON schema (rationals as "p/q" or integer strings; omitted (i,j)
pairs mean zero product; indices are 1-based)::

    { "dim": n, "basis": [names],
      "product": [ { "i": 1, "j": 2, "out": { "3": "1" } }, ... ],
      "twist": [[row of rationals], ...],
      "require_multiplicative": bool,
      "symmetries": [[signed permutation of 1..n], ...] }

"symmetries" is optional: generators of a group of signed-permutation
automorphisms, where the entry +-j at position i means e_i -> +-e_j.
Loading checks only that each is a signed permutation; the first sweep
or dump checks exactly that each preserves the product and commutes
with the twist, and refuses the algebra otherwise.  Without the key the
group is the identity alone.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import cached_property

# elements are added like polynomials: both are sparse dicts
from .normalform import Record, linear_combination as element_add, mono_leaves

BUNDLED = ("cross3", "cross3_rot", "m7", "m7_auto", "abelian4")


class AlgebraError(ValueError):
    """Schema or multiplicativity violation in an algebra document."""


class AlgebraSpec(Record):
    """Anticommutative algebra with a twisting map, over exact rationals.

    ``product`` maps (i, j) with i < j to {k: Fraction}, 0-based, and
    ``twist`` holds the matrix rows, a tuple of tuples of Fraction.
    ``symmetries`` holds the declared generators as in the JSON: tuples
    of signed 1-based indices, checked when ``permutations`` is read.
    """

    _fields = ("dim", "basis", "product", "twist", "name", "symmetries")
    __hash__ = None

    def __init__(self, dim, basis, product, twist, name=None, symmetries=()):
        self.dim, self.basis, self.product = dim, basis, product
        self.twist, self.name, self.symmetries = twist, name, symmetries
        cols = []
        for j in range(self.dim):
            col = {r: self.twist[r][j] for r in range(self.dim) if self.twist[r][j]}
            cols.append(col)
        self.twist_cols = tuple(cols)

    @cached_property
    def integer_form(self):
        """(dp, dt, table, twist_cols) with the product constants scaled
        by dp and the twist by dt, the least common multiples of their
        denominators, so that every entry is an integer.  table[i][j]
        holds the (k, c) pairs of dp * e_i*e_j, signed for i > j."""
        dp = math.lcm(
            *(c.denominator for out in self.product.values() for c in out.values())
        )
        dt = math.lcm(*(c.denominator for row in self.twist for c in row))
        rows = [[()] * self.dim for _ in range(self.dim)]
        for (i, j), out in self.product.items():
            rows[i][j] = tuple([(k, _times(c, dp)) for k, c in out.items()])
            rows[j][i] = tuple([(k, -c) for k, c in rows[i][j]])
        table = tuple(map(tuple, rows))
        cols = [{r: _times(c, dt) for r, c in col.items()} for col in self.twist_cols]
        return dp, dt, table, cols

    @cached_property
    def permutations(self):
        """The group the declared ``symmetries`` generate, as 0-based
        permutations of the basis indices with the signs dropped; the
        identity alone when none is declared.  Each generator g is checked
        exactly first: g(a(e_j)) = a(g(e_j)) and g(e_i*e_j) =
        g(e_i)*g(e_j) on the basis, or it is an AlgebraError."""
        _, _, table, cols = self.integer_form
        gens = []
        for g in self.symmetries:
            perm = tuple(abs(s) - 1 for s in g)
            sign = [1 if s > 0 else -1 for s in g]

            def moved(pairs, w):  # w * g(u), for u given by its (k, c) pairs
                return {perm[k]: w * sign[k] * c for k, c in pairs}

            if any(moved(col.items(), sign[j]) != cols[perm[j]]
                   for j, col in enumerate(cols)):
                raise AlgebraError(f"symmetry {list(g)} does not commute with the twist")
            if any(moved(table[i][j], sign[i] * sign[j]) != dict(table[perm[i]][perm[j]])
                   for i, j in itertools.combinations(range(self.dim), 2)):
                raise AlgebraError(f"symmetry {list(g)} does not preserve the product")
            gens.append(perm)
        group, new = set(), {tuple(range(self.dim))}
        while new:  # a breadth-first closure
            group |= new
            new = {tuple([g[k] for k in h]) for h in new for g in gens} - group
        return sorted(group)

    def is_multiplicative(self):
        """First basis pair violating a(u*v) = a(u)*a(v), or None."""
        return self._first_bad_pair

    @cached_property
    def _first_bad_pair(self):
        # computed once: loading and checking both ask.  In the integer
        # form, a(e_i*e_j) = a(e_i)*a(e_j) reads a(e_i)*a(e_j) - dt*a(e_i*e_j) = 0
        _, dt, table, cols = self.integer_form
        for i, j in itertools.combinations(range(self.dim), 2):
            rhs = {}
            _multiply_into(rhs, table, 1, cols[i], cols[j])
            if element_add([(1, rhs), *((-dt * c, cols[k]) for k, c in table[i][j])]):
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
    symmetries = doc.get("symmetries", [])
    if not isinstance(symmetries, list) or any(
        not isinstance(g, list)
        or sorted(abs(s) if type(s) is int else 0 for s in g) != list(range(1, dim + 1))
        for g in symmetries
    ):
        raise AlgebraError(f"'symmetries' must list signed permutations of 1..{dim}")
    spec = AlgebraSpec(dim, tuple(basis), product, twist, name or doc.get("name"),
                       tuple(map(tuple, symmetries)))
    if doc.get("require_multiplicative", False):
        require_multiplicative(spec)
    return spec


def require_multiplicative(spec):
    """Raise AlgebraError unless the twist is multiplicative."""
    bad = spec.is_multiplicative()
    if bad is not None:
        raise AlgebraError(f"twist is not an endomorphism: fails on basis pair {bad}")


def load_bundled(name):
    """Load a bundled algebra by its name in BUNDLED, whatever files the
    working directory holds."""
    from importlib import resources

    data = resources.files("homcheck.data").joinpath(f"{name}.json")
    return load_algebra(json.loads(data.read_text()), name)


def load_algebra_file(path):
    """Load from a JSON file path, or from the bundled catalog by name."""
    import os

    if not os.path.exists(path):
        stem = os.path.splitext(os.path.basename(str(path)))[0]
        if stem in BUNDLED:
            return load_bundled(stem)
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
    """Inverse of load_algebra, as a JSON-serializable document.  A
    declared symmetry is checked before it is written."""
    doc = {
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
    if spec.symmetries and spec.permutations:
        doc["symmetries"] = [list(g) for g in spec.symmetries]
    return doc


# ---------------------------------------------------------------------------
# element arithmetic (elements are sparse dicts index -> coefficient)

def _multiply_into(acc, table, w, u, v):
    """acc += w*u*v over the signed product table of
    AlgebraSpec.integer_form; zero coefficients stay in acc.

    The one product kernel, which ``multiply`` and the concrete sweep use.
    """
    for i, ci in u.items():
        row = table[i]
        if w != 1:
            ci *= w
        for j, cj in v.items():
            for k, c in row[j]:
                acc[k] = acc.get(k, 0) + ci * cj * c


def multiply(spec, u, v):
    """Bilinear extension of the structure constants."""
    dp, _, table, _ = spec.integer_form
    out = {}
    _multiply_into(out, table, 1, u, v)
    return {k: Fraction(c, dp) for k, c in out.items() if c}


# ---------------------------------------------------------------------------
# identity checking and the twisting construction

# what ``check`` prints, in JSON and in text, when the sweep finds no
# failing tuple (``check_identity_concrete`` returns None)
HOLDS = {"verdict": "holds"}, "Holds"


class Counterexample(Record):
    """First basis tuple (1-based) where the polarized identity fails.

    ``to_obj`` is the document ``check --format json`` prints and
    ``to_text(spec)`` the line ``check`` prints, with spec's basis names.
    """

    _fields = ("variables", "tuple_indices", "residual")

    def __init__(self, variables, tuple_indices, residual):
        self.variables, self.tuple_indices = variables, tuple_indices
        self.residual = residual

    def to_obj(self):
        return {
            "verdict": "counterexample",
            "tuple": list(self.tuple_indices),
            "vars": list(self.variables),
            "residual": {str(k + 1): str(c) for k, c in sorted(self.residual.items())},
        }

    def to_text(self, spec):
        assignment = ", ".join(
            f"{v} = {spec.basis[i - 1]}"
            for v, i in zip(self.variables, self.tuple_indices)
        )
        value = " + ".join(
            f"{c}*{spec.basis[k]}" if c != 1 else spec.basis[k]
            for k, c in sorted(self.residual.items())
        )
        return f"Counterexample: {assignment} -> {value}"


def _times(c, d):
    """The rational c times d, as an int; d is a multiple of c's denominator."""
    return c.numerator * (d // c.denominator)


def check_identity_concrete(spec, ident):
    """Evaluate the polarized identity on basis tuples, modulo its
    variable swaps and the algebra's symmetries.

    Returns None when the identity holds, otherwise the Counterexample
    at the first failing tuple in lexicographic tuple order, the same
    with or without the filters below.  What is evaluated is the normal
    form, which assumes a(u*v) = a(u)*a(v); the verdict is about the
    identity as written only when spec's twist is multiplicative
    (``spec.is_multiplicative()`` is None).

    The polarized identity's ``swap_blocks`` attribute holds the blocks
    of variables under whose transpositions the normal form f is
    symmetric or antisymmetric; they come from exact normal forms, so
    each block is a symmetry of the free algebra and not of this one
    algebra only.  Within each block, taken left to right, a tuple is
    visited only if its indices do not decrease, or strictly increase in
    an antisymmetric block: the lexicographically least tuple of its
    orbit.  This cannot change the result.  The sweep evaluates f itself,
    and the normal form uses only anticommutativity, so f(s t) = +-f(t)
    for every swap s of a block in every anticommutative algebra,
    multiplicative or not.  The failing tuples are therefore a union of
    orbits, and the least failing tuple is the least of its orbit, so it
    is visited and its residual is computed as before.  A tuple with
    equal indices on an antisymmetric pair gives f = -f, so f = 0 over
    the rationals, and it is skipped.  A declared variable that f does
    not contain takes only index 0: f does not depend on it, so the
    least failing tuple has index 0 there.

    The algebra's symmetries filter further.  A signed permutation g of
    the basis that preserves the product and commutes with the twist
    maps f(e_t1, ..., e_tk) to f(g e_t1, ..., g e_tk) = +-f(e_pi(t1),
    ..., e_pi(tk)), with pi the permutation g makes of the indices.  So
    f vanishes at a tuple exactly when it vanishes at its image, and the
    failing tuples are a union of orbits under the group of the pi
    (``spec.permutations``) too, acting on every position at once.  The
    least failing tuple is the least of its orbit under both groups
    together, so no pi that fixes its first q indices maps its index at
    position q lower: otherwise that image, with index 0 again at the
    variables f does not contain, would be a smaller failing tuple.
    The sweep keeps an index only when it passes this test under the
    permutations that fix the earlier indices, so it visits the least
    failing tuple, and every tuple it skips is not the least failing
    one.  At a position whose variable f does not contain, the
    permutations pass through unnarrowed, not only those that fix index
    0.  This is sound because the least failing tuple has index 0 at
    every such position, whatever the permutation does there.

    The sweep runs in integers, over ``spec.integer_form``: a monomial
    with L leaves and twist powers summing to P evaluates to
    dp^(L-1) * dt^P times its true value, and each term's coefficient
    absorbs that factor into an integer weight over one common
    denominator.

    f is evaluated as one tree of nodes, each a leaf (1, v, p) or a weighted
    sum over one variable set (see the comment above ``_terms``).  A node
    over variable set S is computed at most dim^|S| times, the root once
    per visited tuple.
    """
    ident = ident.polarized
    terms = ident.poly.sorted_terms()
    dp, dt, table, cols = spec.integer_form
    leaf_lists = [list(mono_leaves(mono)) for mono, _ in terms]
    scales = [
        dp ** (len(leaves) - 1) * dt ** sum(p for _, p in leaves)
        for leaves in leaf_lists
    ]
    den = math.lcm(*(c.denominator * s for (_, c), s in zip(terms, scales)))
    weighted = [(_times(c, den // s), mono) for (mono, c), s in zip(terms, scales)]
    root = ((), *_terms(weighted, {}, spec.dim), None)
    # twisted[p][i] is dt^p * a^p(e_i)
    twisted = [[{i: 1} for i in range(spec.dim)]]
    for _ in range(max((p for leaves in leaf_lists for _, p in leaves), default=0)):
        twisted.append(
            [element_add((c, cols[j]) for j, c in u.items()) for u in twisted[-1]]
        )
    # floors[q] = (p, gap): the index at position q must exceed the one
    # at p by at least gap, p < q consecutive positions of one block
    floors = [None] * len(ident.vars)
    for positions, sign in ident.swap_blocks:
        for p, q in zip(positions, positions[1:]):
            floors[q] = (p, 1 if sign < 0 else 0)
    ends = [spec.dim if d else 1 for d in ident.degrees]
    for tup in _tuples((), ends, floors, spec.permutations):
        value = _evaluate(root, table, twisted, spec.dim, tup)
        if any(value.values()):
            residual = {k: Fraction(c, den) for k, c in value.items() if c}
            return Counterexample(ident.vars, tuple(i + 1 for i in tup), residual)
    return None


def _tuples(prefix, ends, floors, perms):
    """The tuples check_identity_concrete visits that extend prefix, in
    lexicographic order.  The index at position q runs from its block's
    floor to ends[q], and is kept only when no permutation in perms,
    those of the group that fix prefix's index at every position f
    depends on, maps it lower."""
    q = len(prefix)
    if q == len(ends):
        yield prefix
        return
    start = 0 if floors[q] is None else prefix[floors[q][0]] + floors[q][1]
    for i in range(start, ends[q]):
        if not all(g[i] >= i for g in perms):
            continue
        if q + 1 == len(ends):  # the last position: no stabilizer needed
            yield prefix + (i,)
        else:
            # a position f does not depend on constrains no permutation
            fixing = perms if ends[q] == 1 else [g for g in perms if g[i] == i]
            yield from _tuples(prefix + (i,), ends, floors, fixing)


# A sweep node is a leaf (1, v, p) or a sum (variables, leaves, products,
# slots): the sum of w*leaf over its (w, leaf) leaves and of w*(A*P) over
# its (w, P, A) products.  By bilinearity, sum_m w_m*(A*B_m) = A*P with
# P = sum_m w_m*B_m, so a sum has one product per distinct first child A
# (5 at the top of hom_malcev or identity_1_2 instead of 8 or 9), and P
# is a node over the variables A lacks.  slots, None at the root, holds
# the value at each assignment of basis indices to the node's variables.

def _terms(parts, nodes, dim):
    """The leaves and products of the node for the sum of w*m over parts,
    which are in monomial order: one product per distinct first child."""
    partners = {}
    for w, m in parts:
        if m[0] != 1:
            partners.setdefault(m[1], []).append((w, m[2]))
    return [(w, m) for w, m in parts if m[0] == 1], [
        (*_node(partner, nodes, dim), _node([(1, first)], nodes, dim)[1])
        for first, partner in partners.items()
    ]


def _node(parts, nodes, dim):
    """(c, node) where c times node's value is the sum of w*m over parts.

    c is the gcd of the weights, signed like the first, so a monomial is
    its own node times its weight and equal sums up to a factor share one
    node in ``nodes``.  A partner keeps the monomial order of its parts,
    as A*B precedes A*B' exactly when B precedes B'."""
    c = math.gcd(*(w for w, _ in parts)) * (1 if parts[0][0] > 0 else -1)
    key = tuple((w // c, m) for w, m in parts)
    if key == ((1, key[0][1]),) and key[0][1][0] == 1:
        return c, key[0][1]
    if key not in nodes:
        variables = sorted(v for v, _ in mono_leaves(key[0][1]))
        slots = [None] * dim ** len(variables)
        nodes[key] = (variables, *_terms(key, nodes, dim), slots)
    return c, nodes[key]


def _evaluate(node, table, twisted, dim, tup):
    """The node's integer value where variable v takes basis index
    tup[v]: read from its slot, or computed and stored there."""
    if type(node[0]) is int:  # a leaf (1, v, p)
        return twisted[node[2]][tup[node[1]]]
    variables, leaves, products, slots = node
    if slots is not None:
        slot = 0
        for v in variables:
            slot = slot * dim + tup[v]
        if slots[slot] is not None:
            return slots[slot]
    value = {}
    for w, (_, v, p) in leaves:
        for k, c in twisted[p][tup[v]].items():
            value[k] = value.get(k, 0) + w * c
    for w, partner, first in products:
        u = _evaluate(first, table, twisted, dim, tup)
        _multiply_into(value, table, w, u, _evaluate(partner, table, twisted, dim, tup))
    if slots is not None:
        value = slots[slot] = {k: c for k, c in value.items() if c}
    return value


def yau_twist(spec):
    """Twisted algebra: same twist map, product composed with it.

    Requires the twist to be a multiplicative endomorphism of the
    original product; the result then satisfies the Hom-Malcev identity
    whenever the original is a Malcev algebra.  It keeps the declared
    symmetries: one that commutes with the twist and preserves the
    product also preserves the twisted product.
    """
    require_multiplicative(spec)
    product = {}
    for (i, j), out in spec.product.items():
        new = element_add((c, spec.twist_cols[j]) for j, c in out.items())
        if new:
            product[(i, j)] = new
    return AlgebraSpec(
        spec.dim,
        spec.basis,
        product,
        spec.twist,
        f"{spec.name}~twisted" if spec.name else None,
        spec.symmetries,
    )
