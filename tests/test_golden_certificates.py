"""Golden certificates: the derivations ``verify-paper`` makes must keep
their exact certificate JSON at every K from 0 to 3.

The files in ``golden/`` were written by the engine that substituted,
sorted and deduplicated every instance up to K before elimination
started.  The instance stream is now built lazily, level by level, and
stops once the target is certified; these files pin that the order it
yields, and so every certificate, did not change.  NotInSpan residuals
are pinned as well, because they depend on elimination consuming the
whole stream.
"""

import os

import pytest

from homcheck.consequence import Certificate, NotInSpan, SearchBounds, derive
from homcheck.dsl import format_expr
from homcheck.identities import catalog, identity_from_dsl
from homcheck.verify import verify_paper

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

# golden file stem -> (target, axiom), as verify-paper's steps 3-8 derive them
DERIVATIONS = {
    "g_repeated": (lambda: identity_from_dsl("vars y,x,z; G(y,x,y,z)", "g_repeated"),
                   "hom_malcev"),
    "eq_2_2": (lambda: catalog("eq_2_2"), "hom_malcev"),
    "eq_2_3": (lambda: catalog("eq_2_3"), "hom_malcev"),
    "eq_2_5": (lambda: catalog("eq_2_5"), "hom_malcev"),
    "eq_2_4": (lambda: catalog("eq_2_4"), "hom_malcev"),
    "identity_1_2": (lambda: catalog("identity_1_2"), "hom_malcev"),
    "hom_malcev": (lambda: catalog("hom_malcev"), "identity_1_2"),
}

# verify-paper step -> the stems of its certificates, in report order
STEP_STEMS = {
    3: ["g_repeated"],
    4: ["eq_2_2"],
    5: ["eq_2_3"],
    6: ["eq_2_5", "eq_2_4"],
    7: ["identity_1_2"],
    8: ["hom_malcev"],
}

STEP_9_DETAIL = (
    "cross3: hom_malcev=Holds, malcev=Holds; m7: hom_malcev=Holds, malcev=Holds;"
    " cross3 hom_jacobi Holds"
)

# golden file stem -> target DSL text, derived from hom_malcev
RESIDUALS = {
    "jacobian_twisted": "J(w*x,a(y),a(z))",
    "a2_jacobian": "a2(w)*J(x,y,z)",
}


def golden(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return fh.read()


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("stem", DERIVATIONS)
def test_certificate_json_is_unchanged(stem, k):
    target, axiom = DERIVATIONS[stem]
    result, _ = derive(target(), [catalog(axiom)], SearchBounds(k))
    assert isinstance(result, Certificate)
    assert result.to_json() == golden(f"{stem}_K{k}.json")


@pytest.mark.parametrize("k", range(3))
@pytest.mark.parametrize("stem", RESIDUALS)
def test_not_in_span_residual_is_unchanged(stem, k):
    result, target = derive(
        identity_from_dsl(RESIDUALS[stem]), [catalog("hom_malcev")], SearchBounds(k)
    )
    assert isinstance(result, NotInSpan)
    assert format_expr(result.residual, target.vars) == golden(f"residual_{stem}_K{k}.txt")


@pytest.mark.parametrize("k", range(4))
def test_verify_paper_certificates_are_unchanged(k):
    # steps 3-8 share spans, their instances and pivots; their certificates
    # are the ones each derive gives on its own
    steps = {s.number: s for s in verify_paper(SearchBounds(k)).steps}
    for number, stems in STEP_STEMS.items():
        certificates = steps[number].certificates
        assert len(certificates) == len(stems)
        for cert, stem in zip(certificates, stems):
            assert cert.to_json() == golden(f"{stem}_K{k}.json")
    assert steps[9].passed
    assert steps[9].detail == STEP_9_DETAIL
