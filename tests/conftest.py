"""Shared corpus generators and independent oracles for the test suite."""

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction

import pytest

import homcheck
from homcheck import consequence
from homcheck.algebras import Counterexample, element_add, multiply
from homcheck.dsl import parse_expr
from homcheck.identities import Identity, Substitution, polarize, substitute
from homcheck.normalform import MPoly, canon, mono_degrees, mono_leaves, normalize

VARS4 = ("w", "x", "y", "z")


def child_env(**extra):
    """Environment for a child interpreter that imports this homcheck."""
    src = os.path.dirname(os.path.dirname(homcheck.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **extra
    )


def scaled(poly, c):
    """The MPoly ``c * poly``."""
    c = Fraction(c)
    return MPoly({m: c * v for m, v in poly.coeffs.items()})


def random_coeff(rng):
    num = rng.choice([n for n in range(-4, 5) if n])
    return Fraction(num, rng.randint(1, 4))


# ---------------------------------------------------------------------------
# tagged syntax trees: the tests' own term encoding, independent of the
# engine's, with the twisting map where it was written:
#   ("var", i)        variable with index i
#   ("prod", l, r)    product of two trees
#   ("twist", t)      twisting map applied to a tree
# They reach homcheck as DSL text through parse_expr, as a user's input does.

def var(i):
    return ("var", i)


def prod(left, right):
    return ("prod", left, right)


def twist(term):
    return ("twist", term)


@dataclass(frozen=True)
class TaggedExpr:
    """(coefficient, tagged tree) pairs over the variable names ``vars``."""

    terms: tuple
    vars: tuple


def random_tagged_term(rng, nvars, depth=3):
    if depth == 0 or rng.random() < 0.4:
        return var(rng.randrange(nvars))
    if rng.random() < 0.3:
        return twist(random_tagged_term(rng, nvars, depth - 1))
    return (
        prod(
            random_tagged_term(rng, nvars, depth - 1),
            random_tagged_term(rng, nvars, depth - 1),
        )
    )


def random_tagged_expr(rng, names=VARS4, max_terms=5, depth=3):
    terms = tuple(
        (random_coeff(rng), random_tagged_term(rng, len(names), depth))
        for _ in range(rng.randint(1, max_terms))
    )
    return TaggedExpr(terms, tuple(names))


def fmt_tagged_term(t, names):
    tag = t[0]
    if tag == "var":
        return names[t[1]]
    if tag == "twist":
        return f"a({fmt_tagged_term(t[1], names)})"
    left = fmt_tagged_term(t[1], names)
    right = fmt_tagged_term(t[2], names)
    if t[1][0] == "prod":
        left = f"({left})"
    if t[2][0] == "prod":
        right = f"({right})"
    return f"{left}*{right}"


def tagged_text(expr):
    """DSL text of a TaggedExpr, with a vars header and every coefficient
    written out."""
    body = " + ".join(f"{c}*{fmt_tagged_term(t, expr.vars)}" for c, t in expr.terms)
    return f"vars {','.join(expr.vars)}; {body or '0'}"


def parse_tagged(expr):
    """The RawExpr that parse_expr builds from the text of ``expr``."""
    return parse_expr(tagged_text(expr))


def shuffled_variant(rng, expr):
    """Reassociate the term list and randomly swap product arguments,
    flipping the sign for each swap; semantically a no-op."""

    def walk(term):
        tag = term[0]
        if tag == "var":
            return 1, term
        if tag == "twist":
            s, t = walk(term[1])
            return s, twist(t)
        sl, left = walk(term[1])
        sr, right = walk(term[2])
        if rng.random() < 0.5:
            return -sl * sr, prod(right, left)
        return sl * sr, prod(left, right)

    terms = []
    for coeff, term in expr.terms:
        sign, t = walk(term)
        terms.append((sign * coeff, t))
    rng.shuffle(terms)
    return TaggedExpr(tuple(terms), expr.vars)


def mono_to_tagged(mono):
    """Canonical monomial -> tagged tree."""
    if mono[0] == 1:
        t = var(mono[1])
        for _ in range(mono[2]):
            t = twist(t)
        return t
    return prod(mono_to_tagged(mono[1]), mono_to_tagged(mono[2]))


def reference_key(mono):
    """The monomial order as a sort key, independent of tuple order on the
    encoding: (1, 0, v, p) for a leaf (1, v, p), (n, 1, key(l), key(r))
    for a product of n leaves with children l and r."""
    if isinstance(mono[1], int):
        return (1, 0, mono[1], mono[2])
    kl, kr = reference_key(mono[1]), reference_key(mono[2])
    return (kl[0] + kr[0], 1, kl, kr)


# ---------------------------------------------------------------------------
# reference symmetry checks and instance streams: every transposition
# applied by ``substitute``, every block permutation substituted


def swapped(ident, i, j):
    """``ident`` with variables i and j exchanged, through ``substitute``."""
    images = [(1, v, 0) for v in range(len(ident.vars))]
    images[i], images[j] = images[j], images[i]
    return substitute(ident, Substitution(tuple(images), ident.vars))


def random_multilinear(rng):
    """The part of a random expression linear in each of w, x, y, z."""
    while True:
        poly = normalize(parse_tagged(random_tagged_expr(rng, depth=3)))
        poly = MPoly(
            {m: c for m, c in poly.coeffs.items()
             if mono_degrees(m, 4) == (1, 1, 1, 1)}
        )
        if poly:
            return Identity(VARS4, poly)


def reference_swap_blocks(ident):
    """swap_blocks by substituting each transposition and comparing the
    whole normal form with +poly and -poly."""
    n = len(ident.vars)
    coeffs = ident.poly.coeffs
    blocks, seen = [], set()
    for i in range(n):
        if i in seen:
            continue
        block = [i]
        for j in range(i + 1, n):
            if j in seen:
                continue
            image = swapped(ident, i, j).poly.coeffs
            if image == coeffs:
                sign = 1
            elif len(image) == len(coeffs) and all(
                coeffs.get(m) == -c for m, c in image.items()
            ):
                sign = -1
            else:
                continue
            block.append(j)
        if len(block) > 1:
            seen.update(block)
            blocks.append((tuple(block), sign))
    return tuple(blocks)


def reference_leaf_depths(mono):
    """{variable: [depth + twist power of each of its leaves]}, from an
    explicit stack of (subtree, depth) pairs."""
    out, todo = {}, [(mono, 0)]
    while todo:
        node, depth = todo.pop()
        if node[0] == 1:
            out.setdefault(node[1], []).append(depth + node[2])
        else:
            todo += [(node[1], depth + 1), (node[2], depth + 1)]
    return out


def reference_grades(ident):
    """Identity.grades: the one depth + twist power that every leaf of a
    variable has, per variable, or None."""
    values = [set() for _ in ident.vars]
    for mono in ident.poly.coeffs:
        for v, depths in reference_leaf_depths(mono).items():
            values[v].update(depths)
    if any(len(vals) != 1 for vals in values):
        return None
    return tuple(min(vals) for vals in values)


def reference_components(ident):
    """Identity.components of a multilinear identity: the grade vectors
    of the monomials that contain every variable."""
    n, out = len(ident.vars), set()
    for mono in ident.poly.coeffs:
        depths = reference_leaf_depths(mono)
        if sorted(depths) == list(range(n)):
            out.add(tuple(depths[v][0] for v in range(n)))
    return out


def reference_instances(axiom, target_vars, k, components=None):
    """The instance stream of generate_instances, built by substituting
    every block permutation and letting the scaling dedup drop the
    repeats, as a list."""
    target_vars = tuple(target_vars)
    grades = None if components is None else reference_grades(axiom)
    levels = {}  # twist weight -> picks, in enumeration order
    for part in consequence._set_partitions(range(len(target_vars)), len(axiom.vars)):
        choices = [consequence.enumerate_monomials(block, k) for block in part]
        mono_weight = {m: consequence._weight((m,)) for monos in choices for m in monos}
        if grades is not None:
            mono_grade = {
                m: tuple(d for _, (d,) in sorted(reference_leaf_depths(m).items()))
                for monos in choices for m in monos
            }
        for perm in itertools.permutations(range(len(part))):
            lists = [choices[p] for p in perm]
            if grades is not None:
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
    out, seen = [], set()
    for weight in sorted(levels):
        for picks in levels[weight]:
            sub = Substitution(picks, target_vars)
            identity = substitute(axiom, sub)
            poly = identity.poly
            if poly.is_zero:
                continue
            lead = poly.leading()[1]
            key = tuple((m, c / lead) for m, c in poly.sorted_terms())
            if key not in seen:
                seen.add(key)
                out.append(consequence.Instance(
                    axiom.name or "axiom", axiom.vars, sub, identity
                ))
    return out


def random_monomial(rng, var_degrees, max_power=2):
    """Random canonical monomial with the given leaves-per-variable counts."""
    leaves = [
        (1, v, rng.randint(0, max_power))
        for v, d in enumerate(var_degrees)
        for _ in range(d)
    ]
    rng.shuffle(leaves)

    def build(items):
        if len(items) == 1:
            return items[0]
        cut = rng.randint(1, len(items) - 1)
        left, right = build(items[:cut]), build(items[cut:])
        return (left[0] + right[0], left, right)

    res = canon(build(leaves))
    return None if res is None else res[1]


# ---------------------------------------------------------------------------
# reference evaluators: plain Fraction arithmetic on elements (sparse dicts
# index -> coefficient), with no tables and no integer scaling, as oracles
# for the concrete sweep and for normalization

def basis_element(i):
    return {i: Fraction(1)}


def apply_twist(spec, u):
    return element_add((c, spec.twist_cols[j]) for j, c in u.items())


def eval_poly(spec, poly, values):
    """Evaluate an MPoly; values[i] is the element for var i."""
    # twisted[p][i] is a^p(values[i])
    twisted = [list(values)]
    for _ in range(max((p for m in poly.coeffs for _, p in mono_leaves(m)), default=0)):
        twisted.append([apply_twist(spec, u) for u in twisted[-1]])

    def value(mono):
        if mono[0] == 1:
            return twisted[mono[2]][mono[1]]
        return multiply(spec, value(mono[1]), value(mono[2]))

    return element_add((c, value(m)) for m, c in poly.coeffs.items())


def reference_sweep(spec, ident):
    """check_identity_concrete with no swap or orbit filter: the
    polarized identity evaluated at every basis tuple in lexicographic
    order, in Fraction arithmetic with no tables, and the Counterexample
    at the first failing tuple, or None.  The value of each monomial is
    kept per assignment of the variables it contains."""
    ident = ident if ident.is_multilinear else polarize(ident)
    memo, variables = {}, {}

    def value(mono, tup):
        if mono not in variables:
            variables[mono] = [v for v, _ in mono_leaves(mono)]
        key = mono, *[tup[v] for v in variables[mono]]
        if key not in memo:
            if mono[0] == 1:
                memo[key] = basis_element(tup[mono[1]])
                for _ in range(mono[2]):
                    memo[key] = apply_twist(spec, memo[key])
            else:
                memo[key] = multiply(spec, value(mono[1], tup), value(mono[2], tup))
        return memo[key]

    for tup in itertools.product(range(spec.dim), repeat=len(ident.vars)):
        residual = element_add((c, value(m, tup)) for m, c in ident.poly.coeffs.items())
        if residual:
            return Counterexample(ident.vars, tuple(i + 1 for i in tup), residual)
    return None


def eval_raw(spec, expr, values):
    """Evaluate a TaggedExpr directly, applying the twisting map where it
    is written (without normalizing first)."""

    def term(t):
        tag = t[0]
        if tag == "var":
            return values[t[1]]
        if tag == "twist":
            return apply_twist(spec, term(t[1]))
        return multiply(spec, term(t[1]), term(t[2]))

    return element_add((c, term(t)) for c, t in expr.terms)


# ---------------------------------------------------------------------------
# Cayley-Dickson doubling over the rationals (independent oracle for the
# bundled octonion commutator table).

def cd_conj(x):
    if isinstance(x, Fraction):
        return x
    return (cd_conj(x[0]), cd_neg(x[1]))


def cd_neg(x):
    if isinstance(x, Fraction):
        return -x
    return (cd_neg(x[0]), cd_neg(x[1]))


def cd_add(x, y):
    if isinstance(x, Fraction):
        return x + y
    return (cd_add(x[0], y[0]), cd_add(x[1], y[1]))


def cd_mul(x, y):
    if isinstance(x, Fraction):
        return x * y
    (a, b), (c, d) = x, y
    return (
        cd_add(cd_mul(a, c), cd_neg(cd_mul(cd_conj(d), b))),
        cd_add(cd_mul(d, a), cd_mul(b, cd_conj(c))),
    )


def cd_flatten(x, out):
    if isinstance(x, Fraction):
        out.append(x)
    else:
        cd_flatten(x[0], out)
        cd_flatten(x[1], out)
    return out


def cd_unit(k, dim=8):
    vec = [Fraction(0)] * dim
    vec[k] = Fraction(1)

    def build(v):
        if len(v) == 1:
            return v[0]
        h = len(v) // 2
        return (build(v[:h]), build(v[h:]))

    return build(vec)


def octonion_commutator_table():
    """e_i.e_j = (1/2)[x_i, x_j] on the seven imaginary octonion units,
    as {(i, j) 0-based, i < j: {k: Fraction}}."""
    table = {}
    for i in range(1, 8):
        for j in range(i + 1, 8):
            p = cd_add(
                cd_mul(cd_unit(i), cd_unit(j)),
                cd_neg(cd_mul(cd_unit(j), cd_unit(i))),
            )
            v = cd_flatten(p, [])
            assert v[0] == 0
            out = {k - 1: v[k] / 2 for k in range(1, 8) if v[k]}
            if out:
                table[(i - 1, j - 1)] = out
    return table


@pytest.fixture(scope="session")
def cd_table():
    return octonion_commutator_table()
