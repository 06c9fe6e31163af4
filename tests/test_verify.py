"""The free checks of the paper replay fail when their symmetry is wrong,
step 9 fails when a premise of its single sweep does not hold, and each
replay builds its own instance streams."""

from homcheck import consequence, verify
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


def test_step_8_checks_the_specialization_replay(monkeypatch):
    # the displayed (2.7) with one sign changed
    e27 = "vars x,y,z; J(y*x,a(y),a(z)) - a2(y)*J(y,z,x) + 2*J(a(y),a(x),y*z)"
    real = verify.identity_from_dsl

    def broken_e27(text, name=None):
        if text == e27:
            text = text.replace(" - a2(y)", " + a2(y)")
        return real(text, name)

    monkeypatch.setattr(verify, "identity_from_dsl", broken_e27)
    report = verify.verify_paper(K0)
    assert [s.number for s in report.steps if not s.passed] == [8]
    assert report.steps[7].detail.endswith("; specialization replay FAILED")


def test_step_9_checks_the_identity_twist(monkeypatch):
    # cross3_rot is cross3 with a rotation as twist: multiplicative, not Id
    real = verify.load_algebra_file
    monkeypatch.setattr(
        verify,
        "load_algebra_file",
        lambda name: real("cross3_rot" if name == "cross3" else name),
    )
    report = verify.verify_paper(K0)
    assert [s.number for s in report.steps if not s.passed] == [9]
    assert report.steps[8].detail.endswith(
        "; twist=Id premises FAILED: cross3 twist is not Id"
    )


def test_step_9_checks_that_malcev_is_the_stripped_hom_malcev(monkeypatch):
    # one sign changed: an identity with another normal form
    other = identity_from_dsl(
        "vars x,y,z; J(x,y,x*z) + J(x,y,z)*x", "malcev"
    )
    monkeypatch.setattr(
        verify,
        "catalog",
        lambda name: other if name == "malcev" else catalog(name),
    )
    report = verify.verify_paper(K0)
    assert [s.number for s in report.steps if not s.passed] == [9]
    assert report.steps[8].detail.endswith(
        "; twist=Id premises FAILED: strip_twist(hom_malcev) is not malcev"
    )


def test_replays_share_streams_within_a_call_only(monkeypatch):
    # steps 3-8 need three streams: hom_malcev over G's repeated-argument
    # variables, hom_malcev over w,x,y,z (steps 4-7) and identity_1_2
    built = []
    real = consequence.generate_instances

    def counted(*args):
        built.append(args[0].name)
        return real(*args)

    monkeypatch.setattr(consequence, "generate_instances", counted)
    first = verify.verify_paper(K0)
    assert built == ["hom_malcev", "hom_malcev", "identity_1_2"]
    second = verify.verify_paper(K0)
    assert built == ["hom_malcev", "hom_malcev", "identity_1_2"] * 2
    assert first.to_obj() == second.to_obj()
