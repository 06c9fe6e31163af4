"""Independent oracle for the benchmark: concrete Hom-algebra arithmetic,
a random expression generator and an evaluator for homcheck's output.

Nothing here imports homcheck.  Expected answers computed with this
module therefore do not come from the code path the benchmark times:
an expression and homcheck's rewrite of it must take the same value at
every point of every multiplicative anticommutative Hom-algebra, and an
identity that fails in a model of the axioms is not a consequence of
them.

Elements are sparse dicts {basis index: coefficient}.  Expressions are
trees of tagged tuples::

    ("v", name)          variable
    ("a", p, node)       twisting map applied p times (p = 1 or 2)
    ("*", left, right)   product
    ("J", t, u, v)       Hom-Jacobian t*u*a(v) + u*v*a(t) + v*t*a(u)

and an expression is a list of (rational coefficient, tree) terms.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction


def _number(value):
    # integers stay ints: exact and much faster than Fraction arithmetic
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class Model:
    """Anticommutative algebra with a linear twist, from structure constants."""

    def __init__(self, dim, table, twist_cols):
        self.dim = dim
        self.table = table            # table[i][j] -> [(k, c)], antisymmetric
        self.twist_cols = twist_cols  # twist_cols[j] -> {r: c}: image of e_j

    @classmethod
    def from_file(cls, path):
        """Read the algebra JSON schema (1-based indices, i < j stored)."""
        with open(path) as fh:
            doc = json.load(fh)
        dim = doc["dim"]
        table = [[[] for _ in range(dim)] for _ in range(dim)]
        for entry in doc.get("product", []):
            i, j = entry["i"] - 1, entry["j"] - 1
            for k, c in entry["out"].items():
                c = _number(c)
                if c:
                    table[i][j].append((int(k) - 1, c))
                    table[j][i].append((int(k) - 1, -c))
        rows = [[_number(c) for c in row] for row in doc["twist"]]
        cols = [{r: rows[r][j] for r in range(dim) if rows[r][j]} for j in range(dim)]
        return cls(dim, table, cols)

    def mul(self, u, v):
        out = {}
        table = self.table
        for i, a in u.items():
            row = table[i]
            for j, b in v.items():
                for k, c in row[j]:
                    out[k] = out.get(k, 0) + a * b * c
        return {k: c for k, c in out.items() if c}

    def alpha(self, u, power=1):
        for _ in range(power):
            out = {}
            for j, a in u.items():
                for r, c in self.twist_cols[j].items():
                    out[r] = out.get(r, 0) + a * c
            u = {k: c for k, c in out.items() if c}
        return u

    def jacobian(self, t, u, v):
        return add(
            [
                (1, self.mul(self.mul(t, u), self.alpha(v))),
                (1, self.mul(self.mul(u, v), self.alpha(t))),
                (1, self.mul(self.mul(v, t), self.alpha(u))),
            ]
        )

    def yau_twist(self):
        """Same twist, product composed with it: (a o mu, a)."""
        table = [
            [sorted(self.alpha(dict(entries)).items()) for entries in row]
            for row in self.table
        ]
        return Model(self.dim, table, self.twist_cols)

    def basis(self, i):
        return {i: 1}


def add(parts):
    out = {}
    for coeff, u in parts:
        for k, c in u.items():
            out[k] = out.get(k, 0) + coeff * c
    return {k: c for k, c in out.items() if c}


# ---------------------------------------------------------------------------
# expression trees

def evaluate(model, terms, env):
    """Value of an expression; env maps variable name -> element."""

    def node(t):
        tag = t[0]
        if tag == "v":
            return env[t[1]]
        if tag == "a":
            return model.alpha(node(t[2]), t[1])
        if tag == "*":
            return model.mul(node(t[1]), node(t[2]))
        return model.jacobian(node(t[1]), node(t[2]), node(t[3]))

    return add((c, node(t)) for c, t in terms)


def to_text(terms):
    """DSL text of an expression (as a user would type it)."""

    def node(t):
        tag = t[0]
        if tag == "v":
            return t[1]
        if tag == "a":
            return f"{'a' if t[1] == 1 else 'a2'}({node(t[2])})"
        if tag == "*":
            right = node(t[2])
            return f"{node(t[1])}*({right})" if t[2][0] == "*" else f"{node(t[1])}*{right}"
        return f"J({node(t[1])},{node(t[2])},{node(t[3])})"

    out = []
    for i, (c, t) in enumerate(terms):
        mag = abs(c)
        body = node(t) if mag == 1 else f"{mag}*{node(t)}"
        if i == 0:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(out)


def random_coeff(rng):
    return _number(Fraction(rng.choice((1, 1, 1, 2, 3, -1, -1, -2)),
                            rng.choice((1, 1, 1, 2, 3))))


def random_tree(rng, leaves):
    """A random product tree over the given leaf names, in the given order,
    with random twists and the odd Hom-Jacobian."""
    if len(leaves) == 1:
        t = ("v", leaves[0])
    elif len(leaves) >= 3 and rng.random() < 0.2:
        a = rng.randint(1, len(leaves) - 2)
        b = rng.randint(a + 1, len(leaves) - 1)
        t = ("J", random_tree(rng, leaves[:a]), random_tree(rng, leaves[a:b]),
             random_tree(rng, leaves[b:]))
    else:
        cut = rng.randint(1, len(leaves) - 1)
        t = ("*", random_tree(rng, leaves[:cut]), random_tree(rng, leaves[cut:]))
    if rng.random() < 0.3:
        t = ("a", rng.choice((1, 2)), t)
    return t


def random_expr(rng, names, chars, multiset=None):
    """Terms over ``names`` until the text is about ``chars`` long.  With
    ``multiset`` every term uses exactly those leaves (multihomogeneous)."""
    terms = []
    while not terms or len(to_text(terms)) < chars:
        leaves = list(multiset) if multiset else [
            rng.choice(names) for _ in range(rng.randint(2, 4))
        ]
        rng.shuffle(leaves)
        terms.append((random_coeff(rng), random_tree(rng, leaves)))
    return terms


def equivalent(rng, terms):
    """A rewrite that is equal in every anticommutative multiplicative
    Hom-algebra: product swaps with a sign flip, a(u*v) -> a(u)*a(v),
    cyclic or sign-flipping permutations of Hom-Jacobian arguments, and a
    shuffled term order."""

    def walk(t):
        tag = t[0]
        if tag == "v":
            return 1, t
        if tag == "a":
            inner = t[2]
            if inner[0] == "*" and rng.random() < 0.5:
                return walk(("*", ("a", t[1], inner[1]), ("a", t[1], inner[2])))
            s, u = walk(inner)
            return s, ("a", t[1], u)
        if tag == "*":
            sl, left = walk(t[1])
            sr, right = walk(t[2])
            if rng.random() < 0.5:
                return -sl * sr, ("*", right, left)
            return sl * sr, ("*", left, right)
        s1, x = walk(t[1])
        s2, y = walk(t[2])
        s3, z = walk(t[3])
        sign = s1 * s2 * s3
        r = rng.random()
        if r < 0.33:
            return sign, ("J", y, z, x)
        if r < 0.66:
            return -sign, ("J", y, x, z)
        return sign, ("J", x, y, z)

    out = []
    for c, t in terms:
        s, u = walk(t)
        out.append((s * c, u))
    rng.shuffle(out)
    return out


def perturbed(rng, terms):
    """One term changed: a new coefficient, or one more twist on all of it."""
    out = list(terms)
    i = rng.randrange(len(out))
    c, t = out[i]
    out[i] = (c + 1 if c != -1 else 2, t) if rng.random() < 0.5 else (c, ("a", 1, t))
    return out


def random_point(rng, model, names):
    return {
        n: {k: v for k in range(model.dim) if (v := rng.randint(-2, 2))}
        for n in names
    }


# ---------------------------------------------------------------------------
# evaluator for homcheck's printed normal forms

_TOKEN = re.compile(r"\s*(?:([a-z][a-z0-9_]*(?:#\d+)?)|(\d+)|(.))")


def evaluate_text(model, text, env):
    """Evaluate printed DSL (sums, rational coefficients, products,
    a(...), a2(...), parentheses) without homcheck's parser.  Names of
    the form ``x#k`` take the value of ``x``."""
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot read {text[pos:]!r}")
        pos = m.end()
        if m.group(1):
            tokens.append(("name", m.group(1)))
        elif m.group(2):
            tokens.append(("int", int(m.group(2))))
        elif m.group(3).strip():
            tokens.append((m.group(3), None))
    tokens.append(("end", None))
    at = [0]

    def peek():
        return tokens[at[0]][0]

    def take(kind=None):
        tok = tokens[at[0]]
        if kind is not None and tok[0] != kind:
            raise ValueError(f"expected {kind!r}, found {tok!r} in {text!r}")
        at[0] += 1
        return tok

    def expr():
        parts = [term(1)]
        while peek() in ("+", "-"):
            parts.append(term(1 if take()[0] == "+" else -1))
        return add(parts)

    def term(sign):
        while peek() == "-":
            take()
            sign = -sign
        coeff = sign
        if peek() == "int":
            coeff *= take()[1]
            if peek() == "/":
                take()
                coeff = Fraction(coeff, take("int")[1])
            if peek() != "*":
                if coeff == 0:
                    return coeff, {}
                raise ValueError(f"bare constant in {text!r}")
            take("*")
        value = factor()
        while peek() == "*":
            take()
            value = model.mul(value, factor())
        return coeff, value

    def factor():
        kind, val = take()
        if kind == "(":
            inner = expr()
            take(")")
            return inner
        if kind == "name" and peek() == "(" and val in ("a", "a2"):
            take("(")
            inner = expr()
            take(")")
            return model.alpha(inner, 1 if val == "a" else 2)
        if kind == "name":
            return env[val.split("#")[0]]
        raise ValueError(f"unexpected {kind!r} in {text!r}")

    value = expr()
    take("end")
    return value
