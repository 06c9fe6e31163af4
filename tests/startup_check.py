"""Which modules the CLI loads, checked in one fresh interpreter.

    PYTHONPATH=src python -S tests/startup_check.py

``-S`` keeps ``site`` and its ``.pth`` files from importing modules of
their own.  The checks, in this order:

- after ``import homcheck.cli`` and ``normalize``, none of START_UP has
  run, while both ENGINE modules are in ``sys.modules``, not yet run (the
  package registers them with ``importlib.util.LazyLoader``);
- ``check`` on a bundled algebra runs neither ENGINE module;
- ``derive`` runs ``homcheck.consequence`` and prints the golden
  certificate of identity_1_2 from hom_malcev at K=1;
- ``from homcheck import catalog, derive, SearchBounds`` works, every
  lazily looked-up name of the package is its module's object, ``from
  homcheck import *`` and ``dir(homcheck)`` include them, and an unknown
  name raises AttributeError;
- with every module of the package run, ``dataclasses`` still is not
  loaded.

Prints one line per failed check and exits 1, else exits 0.  Uses no
``assert``, so it checks the same under ``-O``.
"""

import contextlib
import importlib
import io
import json
import os
import sys
import types

ENGINE = ("homcheck.consequence", "homcheck.verify")
START_UP = ("dataclasses", "importlib.resources") + ENGINE
# the package's names that import their module on first access
LAZY = {
    "consequence": ("Certificate", "NotInSpan", "SearchBounds", "derive",
                    "enumerate_monomials", "generate_instances", "span_membership"),
    "verify": ("Report", "verify_paper"),
}
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def ran(names):
    """The modules of ``names`` whose body has run; a module registered
    lazily stays a ``LazyLoader`` subclass of ModuleType until then."""
    return [name for name in names if type(sys.modules.get(name)) is types.ModuleType]


def run(*argv):
    from homcheck import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def main():
    problems = []

    def check(ok, message):
        if not ok:
            problems.append(message)

    import homcheck.cli  # noqa: F401

    check(run("normalize", "x*(y*z)") == (0, "x*(y*z)\n"), "normalize output")
    check(not ran(START_UP), f"normalize ran {ran(START_UP)}")
    check(all(name in sys.modules for name in ENGINE), "engine modules not registered")
    check(run("check", "cross3", "hom_jacobi") == (0, "Holds\n"), "check output")
    check(not ran(ENGINE), f"check ran {ran(ENGINE)}")

    code, out = run("derive", "--target", "identity_1_2", "--axiom", "hom_malcev",
                    "--K", "1", "--format", "json")
    with open(os.path.join(GOLDEN, "identity_1_2_K1.json")) as fh:
        golden = json.load(fh)
    check(code == 0 and json.loads(out)["certificate"] == golden, "derive output")
    check(ran(ENGINE) == ["homcheck.consequence"], f"derive ran {ran(ENGINE)}")

    import homcheck
    from homcheck import SearchBounds, catalog, derive  # noqa: F401

    for module, names in LAZY.items():
        mod = importlib.import_module(f"homcheck.{module}")
        for name in names:
            check(getattr(homcheck, name) is getattr(mod, name), f"homcheck.{name}")
    star = {}
    exec("from homcheck import *", star)
    public = set(LAZY["consequence"] + LAZY["verify"] + ("catalog", "normalize"))
    check(public <= star.keys() & set(dir(homcheck)), "star import or dir()")
    try:
        homcheck.no_such_name
        problems.append("homcheck.no_such_name did not raise AttributeError")
    except AttributeError:
        pass
    # every module of the package has run now
    check("dataclasses" not in sys.modules, "the package imported dataclasses")

    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
