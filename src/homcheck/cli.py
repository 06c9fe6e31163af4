"""Command-line front end.

Subcommands: normalize, equal, derive, polarize, verify-paper, check,
twist.  Exit codes form a stable contract for CI: 0 success, 1 semantic
negative (not in span / counterexample / unequal), 2 usage or parse
error, 3 invalid input file.  The environment variable HOMCHECK_MAX_K
caps the twist-power bound K.

``--format json`` switches every subcommand but ``twist`` (which always
writes the algebra's JSON document) to JSON output.  derive, check and
verify-paper compute a result and print what it renders: its
``to_obj()`` as JSON or its ``to_text()``, or for check's "holds"
verdict, which has no result object, ``algebras.HOLDS``.

The table ``COMMANDS`` declares each subcommand.  ``main`` builds the
parser of the command it runs only: the top-level parser and that one
subparser, with the same output as the whole tree (see
``build_parser``).  Any other argv, such as ``-h`` or a typo, gets all
seven subparsers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebras import (
    HOLDS,
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
        if not cap.strip().isdecimal():
            raise ValueError(
                f"HOMCHECK_MAX_K must be a non-negative integer, not {cap!r}"
            )
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
        ident = rename(ident, sorted(ident.vars))
    out = format_expr(ident.poly, ident.vars)
    _emit(args, {"input": args.expr, "normal_form": out, "vars": list(ident.vars)}, out)
    return EXIT_OK


def cmd_equal(args):
    i1, i2 = identity_from_dsl(args.expr1), identity_from_dsl(args.expr2)
    # compare over the union variable table: the first expression's
    # variable order (so its indices stay valid) extended by the second's
    # new variables
    names = i1.vars + tuple(v for v in i2.vars if v not in i1.vars)
    equal = i1.poly == rename(i2, names).poly
    _emit(args, {"equal": equal}, "equal" if equal else "not equal")
    return EXIT_OK if equal else EXIT_NEGATIVE


def cmd_polarize(args):
    ident = _resolve_identity(args.identity).polarized
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
    result, _ = derive(target, axioms, _bounds(args))
    _emit(args, result.to_obj(), result.to_text())
    return EXIT_OK if isinstance(result, Certificate) else EXIT_NEGATIVE


def cmd_verify_paper(args):
    from .verify import verify_paper

    report = verify_paper(_bounds(args))
    _emit(args, report.to_obj(), report.to_text())
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def cmd_check(args):
    spec = load_algebra_file(args.algebra)
    # the sweep evaluates the normal form, which assumes a(u*v) = a(u)*a(v)
    require_multiplicative(spec)
    res = check_identity_concrete(spec, _resolve_identity(args.identity))
    if res is None:
        _emit(args, *HOLDS)
        return EXIT_OK
    _emit(args, res.to_obj(), res.to_text(spec))
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


_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})
_K = ("--K", {"dest": "max_alpha_power", "type": int,
              "default": DEFAULT_MAX_ALPHA_POWER,
              "help": "max twist power on substituted leaves"})
_ALGEBRA = ("algebra", {"help": "algebra JSON path or bundled name"})

# name -> (help, handler, argument specs), in --help order; a spec is the
# argument's names followed by add_argument's keywords
COMMANDS = {
    "normalize": ("print the canonical normal form", cmd_normalize,
                  (("expr", {}), _FORMAT)),
    "equal": ("compare two expressions semantically", cmd_equal,
              (("expr1", {}), ("expr2", {}), _FORMAT)),
    "polarize": ("fully multilinearize an identity", cmd_polarize,
                 (("identity", {"help": "catalog name or DSL expression"}), _FORMAT)),
    "derive": ("consequence check with certificate", cmd_derive, (
        ("--target", {"required": True, "help": "catalog name or expression"}),
        ("--axiom", {"action": "append", "required": True,
                     "help": "catalog name or expression (repeatable)"}),
        _FORMAT, _K)),
    "verify-paper": ("run the nine-step replay", cmd_verify_paper, (_FORMAT, _K)),
    "check": ("evaluate an identity in a concrete algebra", cmd_check,
              (_ALGEBRA, ("identity", {"help": "catalog name or expression"}), _FORMAT)),
    "twist": ("apply the twisting construction to an algebra", cmd_twist,
              (_ALGEBRA, ("-o", "--output", {"help": "write the twisted algebra here"}))),
}


def build_parser(argv=None):
    """The argument parser: every command's subparser, or only the one
    that ``argv[0]`` names.

    The two parse argv alike.  The top-level parser has only ``-h`` and
    the command positional, and when ``argv[0]`` names a command,
    argparse hands the rest of argv to that one subparser, whatever other
    subparsers exist.  A subparser's ``prog`` ("homcheck normalize") is
    fixed by ``add_subparsers`` before any subparser is added, so its
    usage, help and error lines read the same.  Only arguments the
    subparser does not recognize come back to the top-level parser, whose
    error repeats its usage line, which lists the commands it has; so
    ``parse_args`` has the whole tree report them.  Any other argv (none,
    ``-h``, ``--``, a typo) gets the whole tree, whose help and "invalid
    choice" error list every command.
    """
    parser = argparse.ArgumentParser(
        prog="homcheck",
        description="Symbolic and concrete verification of anticommutative "
        "Hom-algebra identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [argv[0]] if argv and argv[0] in COMMANDS else COMMANDS:
        help_, fn, specs = COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for *names, kwargs in specs:
            p.add_argument(*names, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def parse_args(argv):
    """argv parsed by the parser build_parser(argv) builds, with the
    output and exit of the whole tree's ``parse_args``."""
    args, extra = build_parser(argv).parse_known_args(argv)
    if extra:
        build_parser().parse_args(argv)  # exits with the full usage line
    return args


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse_args(argv)
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
