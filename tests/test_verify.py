"""The free checks of the paper replay fail when their symmetry is wrong,
a failed derive fails only its own step, step 9 fails when a premise of
its single sweep does not hold or a sweep fails, and each replay builds
its own instance streams, sweeps and loads."""

from homcheck import algebras, consequence, verify
from homcheck.consequence import SearchBounds
from homcheck.identities import catalog, identity_from_dsl

K0 = SearchBounds(0)


def test_step_1_rejects_a_symmetric_block(monkeypatch):
    # the sum of (a(u)*v)*w over the six orders of x, y, z is symmetric
    symmetric = identity_from_dsl(
        "vars x,y,z; (a(x)*y)*z + (a(x)*z)*y + (a(y)*x)*z + (a(y)*z)*x"
        " + (a(z)*x)*y + (a(z)*y)*x"
    )
    assert symmetric.swap_blocks == (((0, 1, 2), 1),)
    monkeypatch.setattr(
        verify,
        "catalog",
        lambda name: symmetric if name == "hom_jacobi" else catalog(name),
    )
    report = verify.verify_paper(K0)
    assert [s.number for s in report.steps if not s.passed] == [1]


def test_step_2_rejects_a_relation_that_does_not_vanish(monkeypatch):
    monkeypatch.setattr(
        verify,
        "catalog",
        lambda name: catalog("eq_2_2") if name == "lemma_2_4_ii" else catalog(name),
    )
    report = verify.verify_paper(K0)
    assert [s.number for s in report.steps if not s.passed] == [2]
    assert report.steps[1].detail == "normal-form check, no axioms"


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


def test_step_6_joins_the_details_of_both_derives(monkeypatch):
    # J(w*x,a(y),a(z)) is not a consequence of hom_malcev at K=0
    other = identity_from_dsl("vars w,x,y,z; J(w*x,a(y),a(z))", "eq_2_4")
    monkeypatch.setattr(
        verify,
        "catalog",
        lambda name: other if name == "eq_2_4" else catalog(name),
    )
    report = verify.verify_paper(K0)
    assert [s.number for s in report.steps if not s.passed] == [6]
    assert report.steps[5].detail == (
        "eq_2_5: certificate with 4 rows; eq_2_4: not in span within bounds; "
        "residual has 3 monomials"
    )
    # the failed derive reports no certificate; eq_2_5's stays
    assert len(report.steps[5].certificates) == 1


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
    real = verify.load_bundled
    monkeypatch.setattr(
        verify,
        "load_bundled",
        lambda name: real("cross3_rot" if name == "cross3" else name),
    )
    report = verify.verify_paper(K0)
    assert [s.number for s in report.steps if not s.passed] == [9]
    assert report.steps[8].detail.endswith(
        "; twist=Id premises FAILED: cross3 twist is not Id"
    )


def test_step_9_fails_when_a_reads_as_sweep_fails(monkeypatch):
    # a counterexample to hom_malcev on m7 fails step 9, and only step 9,
    # although that sweep's verdict is read as malcev's
    real = verify.check_identity_concrete

    def sweep(spec, ident):
        if (spec.name, ident.name) == ("m7", "hom_malcev"):
            return algebras.Counterexample(ident.vars, (1,) * len(ident.vars), {0: 1})
        return real(spec, ident)

    monkeypatch.setattr(verify, "check_identity_concrete", sweep)
    report = verify.verify_paper(K0)
    assert [s.number for s in report.steps if not s.passed] == [9]
    assert not report.passed
    assert "m7: hom_malcev=fails, malcev=fails" in report.steps[8].detail


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


def test_replays_sweep_and_load_each_algebra_once(monkeypatch):
    # step 9 reads malcev's verdict off the hom_malcev sweep, so a replay
    # makes three sweeps and loads each bundled algebra once
    loaded, swept = [], []
    real_load, real_sweep = algebras.load_algebra, verify.check_identity_concrete

    def load(doc, name=None):
        loaded.append(name)
        return real_load(doc, name)

    def sweep(spec, ident):
        swept.append((spec.name, ident.name))
        return real_sweep(spec, ident)

    monkeypatch.setattr(algebras, "load_algebra", load)
    monkeypatch.setattr(verify, "check_identity_concrete", sweep)
    for calls in (1, 2):
        verify.verify_paper(K0)
        assert loaded == ["cross3", "m7"] * calls
        assert swept == [
            ("cross3", "hom_malcev"),
            ("m7", "hom_malcev"),
            ("cross3", "hom_jacobi"),
        ] * calls
