"""The free checks of the paper replay fail when their symmetry is wrong."""

from homcheck import verify
from homcheck.consequence import SearchBounds
from homcheck.identities import catalog, identity_from_dsl, swap_blocks

K0 = SearchBounds(0)


def test_step_1_rejects_a_symmetric_block(monkeypatch):
    # the sum of (a(u)*v)*w over the six orders of x, y, z is symmetric
    symmetric = identity_from_dsl(
        "vars x,y,z; (a(x)*y)*z + (a(x)*z)*y + (a(y)*x)*z + (a(y)*z)*x"
        " + (a(z)*x)*y + (a(z)*y)*x"
    )
    assert swap_blocks(symmetric) == (((0, 1, 2), 1),)
    monkeypatch.setattr(
        verify,
        "catalog",
        lambda name: symmetric if name == "hom_jacobi" else catalog(name),
    )
    report = verify.verify_paper(K0)
    assert [s.number for s in report.steps if not s.passed] == [1]


def test_step_3_needs_both_antisymmetric_pairs(monkeypatch):
    # adding (w*x)*(y*a(z)) keeps G antisymmetric in {w,x} only
    real = verify.identity_from_dsl

    def broken_g(text, name=None):
        if text == "vars w,x,y,z; G(w,x,y,z)":
            text = "vars w,x,y,z; G(w,x,y,z) + (w*x)*(y*a(z))"
        return real(text, name)

    monkeypatch.setattr(verify, "identity_from_dsl", broken_g)
    report = verify.verify_paper(K0)
    assert [s.number for s in report.steps if not s.passed] == [3]
    assert report.steps[2].detail.endswith("; free swap checks FAILED")
