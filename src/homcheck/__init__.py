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
from .consequence import (
    Certificate,
    NotInSpan,
    SearchBounds,
    derive,
    enumerate_monomials,
    generate_instances,
    span_membership,
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
from .verify import Report, verify_paper

__version__ = "0.1.0"
