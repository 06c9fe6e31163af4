"""Textual DSL for anticommutative Hom-algebra expressions.

Grammar (whitespace insignificant)::

    expr    := term (('+'|'-') term)*
    term    := [rat '*'] factor ('*' factor)*
    factor  := ident | name '(' expr (',' expr)* ')'
             | '(' expr ')' | '-' factor
    rat     := integer ['/' positive-integer]

'*' is the algebra product, left-associative.  ``a(...)`` is the twisting
map, ``a2(...)`` is sugar for ``a(a(...))``.  Identifiers match
[a-z][a-z0-9_]* and may not be one of the reserved names a, a2, J, G,
vars.  An optional header ``vars w,x,y,z;`` pins the variable order (a
name may appear in it once); without it variables are numbered by first
appearance.  The literal ``0`` is accepted as the zero expression (the
output of formatting an empty combination).

Any other function name must be an entry of the table ``NAMED`` of
named expressions, each written in this DSL as ``vars params; body``.
J (Hom-Jacobian) and G are two entries::

    J(t,u,v) = (t*u)*a(v) + (u*v)*a(t) + (v*t)*a(u)
    G(w,x,y,z) = J(w*x, a(y), a(z)) - a2(x)*J(w,y,z) - J(x,y,z)*a2(w)

and the named identities of the catalog are the rest, so
``hom_malcev(w*x, a(y), z)`` is a valid factor.

The parser builds every term once, in the encoding of ``normalform``:
a variable is the leaf ``(1, v, p)``, with p the twist power pending
from the ``a(`` and ``a2(`` around it, and a product is ``(n, left,
right)`` with n its number of leaves, so the twisting map is on the
leaves where it is written.  A call expands at parse time: its
arguments are parsed at the pending power, and each body leaf
``(1, i, p)`` is replaced by argument i's terms shifted by p
(``shift_power``), so sum arguments distribute.  Coefficients are ints;
only a ``p/q`` literal makes a Fraction.  Terms and factors are read in
one function, so a level of parentheses costs one interpreter frame and
a call level two.  Parsing neither reorders products nor collects
terms: the result is a flat list of (coefficient, raw term) pairs, and
``normalize`` only orders signs and collects.  This module imports the
tree operations from ``normalform``, never the other way round.
Expansion multiplies term counts, so a product, sum or call that would
expand to more than MAX_RAW_TERMS raw terms raises ParseError before it
is built.  A call expands to its body's raw-term count times each
argument's term count raised to its parameter's degree (3 times the
product of the counts for J, 9 times for G), and is refused as soon as
the arguments read so far pass the bound, before the next argument is
parsed.  An unknown function name is refused at its '(', before any
argument is parsed.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

from .normalform import Record, mono_leaves, shift_power

RESERVED = {"a", "a2", "J", "G", "vars"}

_IDENT_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


class ParseError(ValueError):
    """Syntax, arity or unknown-name error, with source position."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col


class RawExpr(Record):
    """A linear combination of raw terms over a shared variable table.

    ``terms`` holds (coefficient, raw term) pairs with nonzero
    coefficients, each raw term a product tree over twisted leaves in
    the encoding of ``normalform``, as written (not yet sign-ordered);
    ``vars`` maps variable index to name.
    """

    _fields = ("terms", "vars")

    def __init__(self, terms, vars):
        self.terms, self.vars = terms, vars

    def __len__(self):
        return len(self.terms)


# The most raw terms one product, sum or call may expand to.  Nested
# calls or repeated sums outgrow memory within a few dozen characters;
# the largest catalog identity has 30 raw terms and
# G(G(w,x,y,z),...,G(z,w,x,y)) 59 049.
MAX_RAW_TERMS = 65536


# Term tuples are tuples of (coefficient, raw term) pairs.  The parser and
# the calls of named expressions build every expression from these.
def _bound(size, what):
    """Raise ParseError if ``what`` would expand to more than MAX_RAW_TERMS
    raw terms."""
    if size > MAX_RAW_TERMS:
        raise ParseError(
            f"expression too large: {what} expands to {size} raw terms "
            f"(at most {MAX_RAW_TERMS})"
        )


def _prod(ts1, ts2):
    _bound(len(ts1) * len(ts2), "a product")
    return tuple(
        (c1 * c2, (t1[0] + t2[0], t1, t2)) for c1, t1 in ts1 for c2, t2 in ts2
    )


# Named expressions, name -> "vars params; body".  A call name(e1, ...)
# expands the body with each argument's terms where its parameter was.
# J and G are the two used in writing identities; the rest are the
# named identities of the catalog, each in display orientation LHS - RHS.
NAMED = {
    # Hom-Jacobian.
    "J": "vars t,u,v; (t*u)*a(v) + (u*v)*a(t) + (v*t)*a(u)",
    "G": "vars w,x,y,z; J(w*x,a(y),a(z)) - a2(x)*J(w,y,z) - J(x,y,z)*a2(w)",
    # Malcev identity J(x,y,x*z) - J(x,y,z)*x, with J the untwisted Jacobian.
    "malcev": (
        "vars x,y,z;"
        " (x*y)*(x*z) + (y*(x*z))*x + ((x*z)*x)*y"
        " - ((x*y)*z)*x - ((y*z)*x)*x - ((z*x)*y)*x"
    ),
    # Hom-Jacobi identity: the Hom-Jacobian vanishes.
    "hom_jacobi": "vars x,y,z; J(x,y,z)",
    # Hom-Malcev identity (Yau, "Hom-Maltsev, Hom-alternative, and
    # Hom-Jordan algebras").
    "hom_malcev": "vars x,y,z; J(a(x),a(y),x*z) - J(x,y,z)*a2(x)",
    # Four-variable identity equivalent to the Hom-Malcev identity.
    "identity_1_2": (
        "vars w,x,y,z;"
        " J(w*x,a(y),a(z)) - J(w,y,z)*a2(x) - a2(w)*J(x,y,z)"
        " + 2*J(y*z,a(w),a(x))"
    ),
    # Free-algebra identity relating twisted Jacobians of products.
    "lemma_2_4_ii": (
        "vars w,x,y,z;"
        " a2(w)*J(x,y,z) - a2(x)*J(y,z,w) + a2(y)*J(z,w,x) - a2(z)*J(w,x,y)"
        " - J(w*x,a(y),a(z)) - J(y*z,a(w),a(x)) - J(w*y,a(z),a(x))"
        " - J(z*x,a(w),a(y)) + J(z*w,a(x),a(y)) + J(x*y,a(z),a(w))"
    ),
    # Defining combination of the G function; zero once G is expanded.
    "g_def": (
        "vars w,x,y,z;"
        " G(w,x,y,z) - J(w*x,a(y),a(z)) + a2(x)*J(w,y,z) + J(x,y,z)*a2(w)"
    ),
    # Cyclic sum of twisted Jacobians of products.
    "eq_2_2": (
        "vars w,x,y,z;"
        " J(w*x,a(y),a(z)) + J(x*y,a(z),a(w)) + J(y*z,a(w),a(x))"
        " + J(z*w,a(x),a(y))"
    ),
    # 2G expressed through twisted Jacobians.
    "eq_2_3": (
        "vars w,x,y,z;"
        " 2*G(w,x,y,z) - a2(w)*J(x,y,z) + a2(x)*J(w,y,z) - a2(y)*J(z,w,x)"
        " + a2(z)*J(w,x,y) - J(w*x,a(y),a(z)) - J(y*z,a(w),a(x))"
    ),
    # G as twice a two-term Jacobian sum.
    "eq_2_4": "vars w,x,y,z; G(w,x,y,z) - 2*J(w*x,a(y),a(z)) - 2*J(y*z,a(w),a(x))",
    # Alternating twisted-Jacobian sum as three times the two-term sum.
    "eq_2_5": (
        "vars w,x,y,z;"
        " a2(w)*J(x,y,z) - a2(x)*J(y,z,w) + a2(y)*J(z,w,x) - a2(z)*J(w,x,y)"
        " - 3*J(w*x,a(y),a(z)) - 3*J(y*z,a(w),a(x))"
    ),
}


@functools.cache
def named(name):
    """The parsed body of ``NAMED[name]`` and, per parameter, the most
    times it occurs in one raw term.  Parsed on first use; the cache
    holds at most one entry per name of the table."""
    body = parse_expr(NAMED[name])
    leaves = [[v for v, _ in mono_leaves(t)] for _, t in body.terms]
    return body, tuple(
        max((vs.count(i) for vs in leaves), default=0) for i in range(len(body.vars))
    )


def _substitute(t, args):
    # the terms of raw term t with each leaf (1, i, p) replaced by the
    # terms of args[i] shifted by p
    if t[0] == 1:
        arg, p = args[t[1]], t[2]
        return tuple((c, shift_power(u, p)) for c, u in arg) if p else arg
    return _prod(_substitute(t[1], args), _substitute(t[2], args))


# ---------------------------------------------------------------------------
# tokenizer / parser

_VARS_RE = re.compile(r"\s*vars(?![A-Za-z0-9_])")
_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|\d+|[-+*/(),;]|\s+|.")


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(text):
        s = m.group()
        if not s.isspace():
            if s[0].isalpha():
                kind = "name"
            elif s[0].isdigit():
                kind = "int"
            elif s in "+-*/(),;":
                kind = s
            else:
                raise ParseError(f"unexpected character {s!r}", line, col)
            tokens.append((kind, s, line, col))
        nl = s.count("\n")
        if nl:
            line += nl
            col = len(s) - s.rfind("\n")
        else:
            col += len(s)
    tokens.append(("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.varnames = []
        self.varmap = {}
        self.vars_declared = False

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, kind):
        # consume the next token if it is of this kind
        if self.tokens[self.pos][0] != kind:
            return False
        self.pos += 1
        return True

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], tok[3])

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                tok[2],
                tok[3],
            )
        return tok

    def var_index(self, name, tok):
        if name in RESERVED:
            self.error(f"reserved name {name!r} cannot be a variable", tok)
        if not _IDENT_RE.match(name):
            self.error(f"invalid identifier {name!r}", tok)
        if name not in self.varmap:
            if self.vars_declared:
                self.error(f"variable {name!r} not in vars declaration", tok)
            self.varmap[name] = len(self.varnames)
            self.varnames.append(name)
        return self.varmap[name]

    def parse(self):
        if self.peek()[0] == "name" and self.peek()[1] == "vars":
            self.next()
            while True:
                tok = self.expect("name")
                if tok[1] in self.varmap:
                    self.error(f"duplicate variable {tok[1]!r} in vars declaration", tok)
                self.var_index(tok[1], tok)
                if not self.accept(","):
                    break
            self.expect(";")
            self.vars_declared = True
        expr = self.expr(0)
        tok = self.peek()
        if tok[0] != "end":
            self.error(f"unexpected {tok[1]!r} after expression")
        return RawExpr(expr, tuple(self.varnames))

    def expr(self, power):
        # the terms and their factors are read here and only '(' and a
        # call's arguments recurse, so a level of parentheses costs one
        # frame; a variable is a leaf at the pending twist power
        terms, sign = [], 1
        while True:
            while self.accept("-"):
                sign = -sign
            coeff, more, product = sign, True, None
            if self.peek()[0] == "int":
                tok = self.peek()
                coeff *= self.rat()
                more = self.accept("*")
                if not more and coeff:
                    self.error("constant term without a factor", tok)
            while more:
                while self.accept("-"):
                    coeff = -coeff
                tok = self.next()
                kind, val = tok[0], tok[1]
                if kind == "(":
                    factor = self.expr(power)
                    self.expect(")")
                elif kind == "name" and self.peek()[0] == "(":
                    factor = self.call(val, tok, power)
                elif kind == "name":
                    factor = ((1, (1, self.var_index(val, tok), power)),)
                else:
                    self.error(f"unexpected {val or 'end of input'!r}", tok)
                product = factor if product is None else _prod(product, factor)
                more = self.accept("*")
            if not coeff:  # also the literal 0, which has no factor
                product = ()
            elif coeff != 1:
                product = tuple((coeff * c, t) for c, t in product)
            _bound(len(terms) + len(product), "a sum")
            terms.extend(product)
            if self.peek()[0] not in ("+", "-"):
                return tuple(terms)
            sign = 1 if self.next()[0] == "+" else -1

    def rat(self):
        num = int(self.expect("int")[1])
        if self.accept("/"):
            dtok = self.expect("int")
            den = int(dtok[1])
            if den == 0:
                self.error("zero denominator", dtok)
            return Fraction(num, den)
        return num

    def call(self, name, tok, power):
        # a named expression is refused once the arguments read so far
        # expand past MAX_RAW_TERMS: its body's raw-term count times each
        # argument's term count raised to its parameter's degree, counting
        # each argument still to come as one term, so an oversized call
        # stops before its next argument is built
        if name in ("a", "a2"):
            # one argument, read at the raised twist power, whose own
            # sum and product bounds apply
            size, degrees = 0, (0,)
            power += 1 if name == "a" else 2
        elif name in NAMED:
            body, degrees = named(name)
            size = len(body)
        else:
            self.error(f"unknown function {name!r}", tok)
        self.expect("(")
        args = []
        while True:
            args.append(self.expr(power))
            if len(args) <= len(degrees):
                size *= len(args[-1]) ** degrees[len(args) - 1]
            if size > MAX_RAW_TERMS:
                self.error(
                    f"expression too large: {name} expands to at least "
                    f"{size} raw terms (at most {MAX_RAW_TERMS})",
                    tok,
                )
            if not self.accept(","):
                break
        self.expect(")")
        if len(args) != len(degrees):
            noun = "argument" if len(degrees) == 1 else "arguments"
            self.error(f"{name} takes {len(degrees)} {noun}, got {len(args)}", tok)
        if name in ("a", "a2"):
            return args[0]
        return tuple(
            (c * d, u) for c, t in body.terms for d, u in _substitute(t, args)
        )


def parse_expr(text):
    """Parse DSL text into a RawExpr (named expressions already expanded)."""
    return _Parser(text).parse()


def has_vars_header(text):
    """True when ``text`` opens with a ``vars ...;`` header (``vars`` is
    reserved, so a leading ``vars`` token can only start one)."""
    return _VARS_RE.match(text) is not None


# ---------------------------------------------------------------------------
# formatting

def _fmt_leaf(name, power):
    s = name
    while power >= 2:
        s = f"a2({s})"
        power -= 2
    if power:
        s = f"a({s})"
    return s


def format_monomial(mono, names):
    """Render a monomial or raw term: a leaf (1, v, p) or a product
    (n, left, right) of n leaves, see normalform."""
    if mono[0] == 1:
        return _fmt_leaf(names[mono[1]], mono[2])
    # one call per child, so a level of the tree costs one frame
    left, right = format_monomial(mono[1], names), format_monomial(mono[2], names)
    if mono[1][0] != 1:
        left = f"({left})"
    if mono[2][0] != 1:
        right = f"({right})"
    return f"{left}*{right}"


def format_expr(obj, names=None):
    """Render a RawExpr or an MPoly back to DSL text.

    A RawExpr prints its terms as parsed, with the twists on the leaves
    (``a(x*y)`` prints as ``a(x)*a(y)``).  The output re-parses to an
    expression with the same normal form: printing and parsing each take
    one frame per level of parentheses.  For an MPoly the variable name
    table must be supplied.
    """
    if isinstance(obj, RawExpr):
        names, terms = obj.vars, obj.terms
    elif names is None:
        raise ValueError("variable names required to format an MPoly")
    else:
        terms = [(c, m) for m, c in obj.sorted_terms()]
    out = []
    for c, t in terms:
        mag, s = abs(c), format_monomial(t, names)
        body = s if mag == 1 else f"{mag}*{s}"
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(out) or "0"
