"""Command-line front end.

Subcommands: normalize, equal, derive, polarize, verify-paper, check,
twist.  Exit codes form a stable contract for CI: 0 success, 1 semantic
negative (not in span / counterexample / unequal), 2 usage or parse
error, 3 invalid input file.  The environment variable HOMCHECK_MAX_K
caps the twist-power bound K.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebras import (
    AlgebraError,
    check_identity_concrete,
    dump_algebra,
    load_algebra_file,
    require_multiplicative,
    yau_twist,
)
from .dsl import ParseError, format_expr, has_vars_header
from .identities import (
    CATALOG_NAMES,
    DEFAULT_MAX_ALPHA_POWER,
    catalog,
    identity_from_dsl,
    polarize,
    rename,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BAD_FILE = 3


def _resolve_identity(text):
    """Catalog name, else DSL expression."""
    if text in CATALOG_NAMES:
        return catalog(text)
    return identity_from_dsl(text, text)


def _bounds(args):
    from .consequence import SearchBounds

    k = args.max_alpha_power
    cap = os.environ.get("HOMCHECK_MAX_K")
    if cap is not None:
        cap = int(cap)
        if k > cap:
            print(
                f"warning: K={k} capped to {cap} by HOMCHECK_MAX_K",
                file=sys.stderr,
            )
            k = cap
    return SearchBounds(k)


def _emit(args, obj, text):
    print(json.dumps(obj, indent=2) if args.format == "json" else text)


def cmd_normalize(args):
    ident = identity_from_dsl(args.expr)
    if not has_vars_header(args.expr):
        # stable display order when the input does not pin one
        ident = rename(ident, {}, sorted(ident.vars))
    out = format_expr(ident.poly, ident.vars)
    _emit(args, {"input": args.expr, "normal_form": out, "vars": list(ident.vars)}, out)
    return EXIT_OK


def cmd_equal(args):
    i1, i2 = identity_from_dsl(args.expr1), identity_from_dsl(args.expr2)
    # compare over the union variable table: the first expression's
    # variable order (so its indices stay valid) extended by the second's
    # new variables
    names = i1.vars + tuple(v for v in i2.vars if v not in i1.vars)
    equal = i1.poly == rename(i2, {}, names).poly
    _emit(args, {"equal": equal}, "equal" if equal else "not equal")
    return EXIT_OK if equal else EXIT_NEGATIVE


def cmd_polarize(args):
    ident = polarize(_resolve_identity(args.identity))
    out = format_expr(ident.poly, ident.vars)
    _emit(
        args,
        {"vars": list(ident.vars), "polarized": out},
        f"vars: {', '.join(ident.vars)}\n{out}",
    )
    return EXIT_OK


def cmd_derive(args):
    from .consequence import Certificate, derive

    target = _resolve_identity(args.target)
    axioms = [_resolve_identity(a) for a in args.axiom]
    bounds = _bounds(args)
    result, polarized = derive(target, axioms, bounds)
    if isinstance(result, Certificate):
        obj = {
            "status": "certificate",
            "target": format_expr(polarized.poly, polarized.vars),
            "certificate": result.to_obj(),
        }
        text = json.dumps(result.to_obj(), indent=2)
        _emit(args, obj, text)
        return EXIT_OK
    obj = {
        "status": "not_in_span",
        "max_alpha_power": bounds.max_alpha_power,
        "residual_monomials": result.residual_monomials,
        "residual": format_expr(result.residual, polarized.vars),
        "k_saturated": result.k_saturated,
        "axioms_skipped": list(result.axioms_skipped),
    }
    _emit(
        args,
        obj,
        f"not in span within bounds (K={obj['max_alpha_power']}); "
        f"residual has {result.residual_monomials} monomials",
    )
    return EXIT_NEGATIVE


def cmd_verify_paper(args):
    from .verify import verify_paper

    report = verify_paper(_bounds(args))
    total = len(report.steps)
    lines = [
        f"step {s.number}/{total}: {'PASS' if s.passed else 'FAIL'} - {s.title}"
        + (f" ({s.detail})" if s.detail else "")
        for s in report.steps
    ]
    lines.append("overall: " + ("PASS" if report.passed else "FAIL"))
    _emit(args, report.to_obj(), "\n".join(lines))
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def cmd_check(args):
    spec = load_algebra_file(args.algebra)
    # the sweep evaluates the normal form, which assumes a(u*v) = a(u)*a(v)
    require_multiplicative(spec)
    ident = _resolve_identity(args.identity)
    res = check_identity_concrete(spec, ident)
    if res is None:
        _emit(args, {"verdict": "holds"}, "Holds")
        return EXIT_OK
    _emit(
        args,
        {
            "verdict": "counterexample",
            "tuple": list(res.tuple_indices),
            "vars": list(res.variables),
            "residual": {str(k + 1): str(c) for k, c in sorted(res.residual.items())},
        },
        f"Counterexample: {res.describe(spec)}",
    )
    return EXIT_NEGATIVE


def cmd_twist(args):
    spec = load_algebra_file(args.algebra)
    doc = dump_algebra(yau_twist(spec))
    text = json.dumps(doc, indent=1)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except FileNotFoundError:
            raise  # main reports a missing directory
        except OSError as exc:
            print(f"cannot write {args.output}: {exc.strerror}", file=sys.stderr)
            return EXIT_BAD_FILE
    else:
        print(text)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="homcheck",
        description="Symbolic and concrete verification of anticommutative "
        "Hom-algebra identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, k=False):
        p.add_argument("--format", choices=("text", "json"), default="text")
        if k:
            p.add_argument(
                "--K",
                dest="max_alpha_power",
                type=int,
                default=DEFAULT_MAX_ALPHA_POWER,
                help="max twist power on substituted leaves",
            )

    p = sub.add_parser("normalize", help="print the canonical normal form")
    p.add_argument("expr")
    common(p)
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("equal", help="compare two expressions semantically")
    p.add_argument("expr1")
    p.add_argument("expr2")
    common(p)
    p.set_defaults(fn=cmd_equal)

    p = sub.add_parser("polarize", help="fully multilinearize an identity")
    p.add_argument("identity", help="catalog name or DSL expression")
    common(p)
    p.set_defaults(fn=cmd_polarize)

    p = sub.add_parser("derive", help="consequence check with certificate")
    p.add_argument("--target", required=True, help="catalog name or expression")
    p.add_argument(
        "--axiom",
        action="append",
        required=True,
        help="catalog name or expression (repeatable)",
    )
    common(p, k=True)
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("verify-paper", help="run the nine-step replay")
    common(p, k=True)
    p.set_defaults(fn=cmd_verify_paper)

    p = sub.add_parser("check", help="evaluate an identity in a concrete algebra")
    p.add_argument("algebra", help="algebra JSON path or bundled name")
    p.add_argument("identity", help="catalog name or expression")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("twist", help="apply the twisting construction to an algebra")
    p.add_argument("algebra", help="algebra JSON path or bundled name")
    p.add_argument("-o", "--output", help="write the twisted algebra here")
    common(p)
    p.set_defaults(fn=cmd_twist)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe (`| head`).  Point stdout at devnull
        # so the flush at interpreter exit cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_NEGATIVE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    except (KeyError, ValueError) as exc:
        if isinstance(exc, AlgebraError):
            print(f"invalid algebra: {exc}", file=sys.stderr)
            return EXIT_BAD_FILE
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"no such file: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE


if __name__ == "__main__":
    sys.exit(main())
