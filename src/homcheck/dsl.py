"""Textual DSL for anticommutative Hom-algebra expressions.

Grammar (whitespace insignificant)::

    expr    := term (('+'|'-') term)*
    term    := [rat '*'] factor ('*' factor)*
    factor  := ident | 'a(' expr ')' | 'a2(' expr ')'
             | 'J(' expr ',' expr ',' expr ')'
             | 'G(' expr ',' expr ',' expr ',' expr ')'
             | '(' expr ')' | '-' factor
    rat     := integer ['/' positive-integer]

'*' is the algebra product, left-associative.  ``a(...)`` is the twisting
map, ``a2(...)`` is sugar for ``a(a(...))``.  Identifiers match
[a-z][a-z0-9_]* and may not be one of the reserved names a, a2, J, G,
vars.  An optional header ``vars w,x,y,z;`` pins the variable order;
without it variables are numbered by first appearance.  The literal
``0`` is accepted as the zero expression (the output of formatting an
empty combination).

The macros J (Hom-Jacobian) and G expand at parse time::

    J(t,u,v) = (t*u)*a(v) + (u*v)*a(t) + (v*t)*a(u)
    G(w,x,y,z) = J(w*x, a(y), a(z)) - a2(x)*J(w,y,z) - J(x,y,z)*a2(w)

Both are multilinear, so sum arguments distribute.  They are built from
the three operations on term tuples that the parser itself uses:
product, twist and negation.  Parsing never rewrites products: the
result is a flat list of (coefficient, raw term) pairs where each raw
term is a pure product/twist tree over variables.  Expansion multiplies
term counts, so a product, sum, J or G that would expand to more than
MAX_RAW_TERMS raw terms raises ParseError before it is built.  A J or G
is refused as soon as 3 or 9 times the term counts of the arguments
read so far passes the bound, before the next argument is parsed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

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


# Raw terms are tagged tuples:
#   ("var", i)        variable with index i
#   ("prod", l, r)    product of two raw terms
#   ("twist", t)      twisting map applied to a raw term
def var(i):
    return ("var", i)


def prod(left, right):
    return ("prod", left, right)


def twist(term):
    return ("twist", term)


@dataclass(frozen=True)
class RawExpr:
    """A linear combination of raw terms over a shared variable table.

    ``terms`` holds (coefficient, raw term) pairs with nonzero
    coefficients; ``vars`` maps variable index to name.
    """

    terms: tuple
    vars: tuple

    def __len__(self):
        return len(self.terms)


# The most raw terms one product, sum, J or G may expand to.  Nested
# macros or repeated sums outgrow memory within a few dozen characters;
# the largest catalog identity has 30 raw terms and
# G(G(w,x,y,z),...,G(z,w,x,y)) 59 049.
MAX_RAW_TERMS = 65536


# Term tuples are tuples of (coefficient, raw term) pairs.  The parser and
# the macros build every expression from these three operations.
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
    return tuple((c1 * c2, prod(t1, t2)) for c1, t1 in ts1 for c2, t2 in ts2)


def _twist(ts, power=1):
    for _ in range(power):
        ts = tuple((c, twist(t)) for c, t in ts)
    return ts


def _neg(ts):
    return tuple((-c, t) for c, t in ts)


def _jacobian(t, u, v):
    """J(t,u,v) = t*u*a(v) + u*v*a(t) + v*t*a(u), multilinear in t,u,v."""
    _bound(3 * len(t) * len(u) * len(v), "J")
    return (
        _prod(_prod(t, u), _twist(v))
        + _prod(_prod(u, v), _twist(t))
        + _prod(_prod(v, t), _twist(u))
    )


def _g(w, x, y, z):
    """G(w,x,y,z) = J(w*x,a(y),a(z)) - a2(x)*J(w,y,z) - J(x,y,z)*a2(w)."""
    _bound(9 * len(w) * len(x) * len(y) * len(z), "G")
    return (
        _jacobian(_prod(w, x), _twist(y), _twist(z))
        + _neg(_prod(_twist(x, 2), _jacobian(w, y, z)))
        + _neg(_prod(_jacobian(x, y, z), _twist(w, 2)))
    )


# name -> (arity, raw terms per product of argument terms, expansion)
_MACROS = {"J": (3, 3, _jacobian), "G": (4, 9, _g)}


def expand_macros(name, args):
    """Expand the macro ``name`` applied to RawExpr arguments, which must
    share one variable table."""
    if name not in _MACROS:
        raise ValueError(f"unknown macro {name!r}")
    arity, _, fn = _MACROS[name]
    if len(args) != arity:
        raise ValueError(f"{name} takes {arity} arguments, got {len(args)}")
    if len({a.vars for a in args}) != 1:
        raise ValueError("mixed variable contexts")
    return RawExpr(fn(*(a.terms for a in args)), args[0].vars)


# ---------------------------------------------------------------------------
# tokenizer / parser

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
                self.var_index(tok[1], tok)
                if self.peek()[0] == ",":
                    self.next()
                else:
                    break
            self.expect(";")
            self.vars_declared = True
        expr = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            self.error(f"unexpected {tok[1]!r} after expression")
        return RawExpr(expr, tuple(self.varnames))

    def expr(self):
        terms = list(self.term())
        while self.peek()[0] in ("+", "-"):
            sign = 1 if self.next()[0] == "+" else -1
            term = self.term()
            _bound(len(terms) + len(term), "a sum")
            terms.extend((sign * c, t) for c, t in term)
        return tuple(terms)

    def rat(self):
        num = int(self.expect("int")[1])
        if self.peek()[0] == "/":
            self.next()
            dtok = self.expect("int")
            den = int(dtok[1])
            if den == 0:
                self.error("zero denominator", dtok)
            return Fraction(num, den)
        return Fraction(num)

    def term(self):
        sign = 1
        while self.peek()[0] == "-":
            self.next()
            sign = -sign
        coeff = Fraction(sign)
        if self.peek()[0] == "int":
            tok = self.peek()
            coeff *= self.rat()
            if self.peek()[0] != "*":
                if coeff == 0:
                    return ()
                self.error("constant term without a factor", tok)
            self.next()
        factors = self.factor()
        while self.peek()[0] == "*":
            self.next()
            factors = _prod(factors, self.factor())
        return tuple((coeff * c, t) for c, t in factors if coeff * c != 0)

    def factor(self):
        tok = self.next()
        kind, val = tok[0], tok[1]
        if kind == "-":
            return _neg(self.factor())
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "name":
            if self.peek()[0] == "(":
                return self.call(val, tok)
            return ((Fraction(1), var(self.var_index(val, tok))),)
        self.error(f"unexpected {val or 'end of input'!r}", tok)

    def call(self, name, tok):
        # a macro is refused once the arguments read so far expand past
        # MAX_RAW_TERMS, counting each argument still to come as one term,
        # so an oversized call stops before its next argument is built
        factor = _MACROS[name][1] if name in _MACROS else 0
        self.expect("(")
        args = []
        while True:
            args.append(self.expr())
            factor *= len(args[-1])
            if factor > MAX_RAW_TERMS:
                self.error(
                    f"expression too large: {name} expands to at least "
                    f"{factor} raw terms (at most {MAX_RAW_TERMS})",
                    tok,
                )
            if self.peek()[0] != ",":
                break
            self.next()
        self.expect(")")
        if name in ("a", "a2"):
            if len(args) != 1:
                self.error(f"{name} takes 1 argument, got {len(args)}", tok)
            return _twist(args[0], 1 if name == "a" else 2)
        if name in _MACROS:
            arity, _, fn = _MACROS[name]
            if len(args) != arity:
                self.error(f"{name} takes {arity} arguments, got {len(args)}", tok)
            return fn(*args)
        self.error(f"unknown function {name!r}", tok)


def parse_expr(text):
    """Parse DSL text into a RawExpr (macros already expanded)."""
    return _Parser(text).parse()


def has_vars_header(text):
    """True when ``text`` opens with a ``vars ...;`` header (``vars`` is
    reserved, so a leading ``vars`` token can only start one)."""
    return _tokenize(text)[0][1] == "vars"


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
    """Render a canonical monomial: a leaf (1, v, p) or a product
    (n, left, right) of n leaves, see normalform."""
    if mono[0] == 1:
        return _fmt_leaf(names[mono[1]], mono[2])
    left, right = (format_monomial(c, names) for c in mono[1:])
    if mono[1][0] != 1:
        left = f"({left})"
    if mono[2][0] != 1:
        right = f"({right})"
    return f"{left}*{right}"


def _fmt_raw_term(t, names):
    tag = t[0]
    if tag == "var":
        return names[t[1]]
    if tag == "twist":
        return f"a({_fmt_raw_term(t[1], names)})"
    left = _fmt_raw_term(t[1], names)
    right = _fmt_raw_term(t[2], names)
    if t[1][0] == "prod":
        left = f"({left})"
    if t[2][0] == "prod":
        right = f"({right})"
    return f"{left}*{right}"


def _join_terms(pairs):
    # pairs: (Fraction coefficient, rendered monomial string)
    if not pairs:
        return "0"
    out = []
    for i, (c, s) in enumerate(pairs):
        mag = abs(c)
        body = s if mag == 1 else f"{mag}*{s}"
        if i == 0:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(out)


def format_expr(obj, names=None):
    """Render a RawExpr or an MPoly back to DSL text.

    The output re-parses to an expression with the same normal form.
    For an MPoly the variable name table must be supplied.
    """
    if isinstance(obj, RawExpr):
        return _join_terms([(c, _fmt_raw_term(t, obj.vars)) for c, t in obj.terms])
    if names is None:
        raise ValueError("variable names required to format an MPoly")
    return _join_terms([(c, format_monomial(m, names)) for m, c in obj.sorted_terms()])
