"""homcheck: symbolic and concrete verification of identities in
anticommutative Hom-algebras.

The package provides canonical normal forms for the free anticommutative
multiplicative Hom-algebra over the rationals, full polarization of
multihomogeneous identities, a bounded consequence engine returning
exact replayable certificates, and evaluation of identities in
finite-dimensional algebras given by structure constants.
"""

from .dsl import ParseError, RawExpr, format_expr, parse_expr
from .normalform import (
    MPoly,
    multidegree,
    normalize,
    poly_combine,
)
from .identities import (
    CATALOG_NAMES,
    Identity,
    Substitution,
    catalog,
    identity_from_dsl,
    polarize,
    strip_twist,
    substitute,
)
from .algebras import (
    AlgebraError,
    AlgebraSpec,
    Counterexample,
    check_identity_concrete,
    load_algebra,
    load_algebra_file,
    yau_twist,
)

__version__ = "0.1.0"


def _lazy(name):
    """Submodule ``name``, put in ``sys.modules`` with its body not yet
    run: the body runs on first attribute access (``LazyLoader``)."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The derivation engine and the paper replay are registered but not run,
# so that a command which uses neither never compiles or runs them; their
# names below are looked up in them on first access.
consequence, verify = _lazy("consequence"), _lazy("verify")
_LAZY = dict.fromkeys(
    ("Certificate", "NotInSpan", "SearchBounds", "derive", "enumerate_monomials",
     "generate_instances", "span_membership"), "consequence",
) | dict.fromkeys(("Report", "verify_paper"), "verify")


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_LAZY[name]], name)


def __dir__():
    return sorted({*globals(), *_LAZY})


__all__ = [name for name in __dir__() if not name.startswith("_")]
