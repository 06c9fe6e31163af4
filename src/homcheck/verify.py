"""Scripted replay of the equivalence proof between the Hom-Malcev
identity and its four-variable companion, as a nine-step report.

Steps 1-3a are pure normal-form checks (they hold in the free
anticommutative multiplicative Hom-algebra, no axioms assumed), steps
3b-8 are consequence derivations with certificates, and step 9
cross-checks the twist = identity reduction on the bundled concrete
algebras.  Step 8 also replays the paper's proof of the converse: the
specializations of identity_1_2 and their difference are written as DSL
calls such as ``identity_1_2(y,x,y,z)`` and compared with the displayed
lines by normal form, so that replay uses only the parser and the
normal form.

Each job is done once per call.  Steps 3-8 pass one dict to ``derive``,
so derives over the same axiom, variables, components and K read one
lazy instance stream (steps 4-7 all read the hom_malcev stream over
w, x, y, z).  Step 9 sweeps hom_malcev once per algebra and reads the
malcev verdict off that sweep: where the twist is the identity map,
every leaf a^p(u) evaluates as u, so hom_malcev takes the value of
strip_twist(hom_malcev) at every basis tuple, and that identity has
malcev's polarized normal form.  Both premises, the identity twist and
the equal normal forms of the two independently written catalog
identities, are checked exactly and are part of the step's verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebras import check_identity_concrete, load_algebra_file
from .consequence import Certificate, SearchBounds, derive
from .identities import (
    catalog,
    identity_from_dsl,
    polarize,
    strip_twist,
    swap_blocks,
)


@dataclass
class Step:
    number: int
    title: str
    passed: bool
    detail: str = ""
    certificates: list = field(default_factory=list)

    def to_obj(self):
        obj = {
            "step": self.number,
            "title": self.title,
            "passed": self.passed,
            "detail": self.detail,
        }
        if self.certificates:
            obj["certificates"] = [c.to_obj() for c in self.certificates]
        return obj


@dataclass
class Report:
    steps: list

    @property
    def passed(self):
        return all(s.passed for s in self.steps)

    def to_obj(self):
        return {"passed": self.passed, "steps": [s.to_obj() for s in self.steps]}


def _derive_step(number, title, target, axioms, bounds, streams):
    res, _ = derive(target, axioms, bounds, streams)
    if isinstance(res, Certificate):
        return Step(
            number,
            title,
            True,
            f"certificate with {len(res.rows)} rows",
            [res],
        )
    return Step(
        number,
        title,
        False,
        f"not in span within bounds; residual has "
        f"{res.residual_monomials} monomials",
    )


def verify_paper(bounds=None):
    """Run the nine verification steps in order and report each."""
    bounds = bounds or SearchBounds()
    steps = []
    streams = {}  # derive's instance streams, shared by steps 3-8
    hom_malcev = catalog("hom_malcev")
    hom_jacobi = catalog("hom_jacobi")
    identity_1_2 = catalog("identity_1_2")

    # 1: the Hom-Jacobian is skew-symmetric in its three variables: one
    # antisymmetric swap block holding all three gives all 6 permutations.
    ok = swap_blocks(hom_jacobi) == (((0, 1, 2), -1),)
    steps.append(
        Step(1, "Hom-Jacobian skew-symmetry (6 permutations)", ok,
             "normal-form check, no axioms")
    )

    # 2: the four-variable Jacobian relation is a free-algebra identity.
    steps.append(
        Step(
            2,
            "four-variable Jacobian relation vanishes freely",
            catalog("lemma_2_4_ii").poly.is_zero,
            "normal-form check, no axioms",
        )
    )

    # 3: skew-symmetry of G: two free checks (G is antisymmetric in
    # {w,x} and in {y,z}) plus one derivation.
    g = identity_from_dsl("vars w,x,y,z; G(w,x,y,z)")
    free_ok = swap_blocks(g) == (((0, 1), -1), ((2, 3), -1))
    g_rep = identity_from_dsl("vars y,x,z; G(y,x,y,z)", "g_repeated")
    step3 = _derive_step(
        3,
        "G skew-symmetry (free swaps + repeated-argument vanishing)",
        g_rep,
        [hom_malcev],
        bounds,
        streams,
    )
    step3.passed = step3.passed and free_ok
    if not free_ok:
        step3.detail += "; free swap checks FAILED"
    steps.append(step3)

    # 4-6: the auxiliary identities as consequences.
    steps.append(
        _derive_step(4, "cyclic Jacobian sum (eq_2_2)", catalog("eq_2_2"),
                     [hom_malcev], bounds, streams)
    )
    steps.append(
        _derive_step(5, "2G through Jacobians (eq_2_3)", catalog("eq_2_3"),
                     [hom_malcev], bounds, streams)
    )
    step6a = _derive_step(6, "", catalog("eq_2_5"), [hom_malcev], bounds, streams)
    step6b = _derive_step(6, "", catalog("eq_2_4"), [hom_malcev], bounds, streams)
    steps.append(
        Step(
            6,
            "alternating sum (eq_2_5) and G formula (eq_2_4)",
            step6a.passed and step6b.passed,
            f"eq_2_5: {step6a.detail}; eq_2_4: {step6b.detail}",
            step6a.certificates + step6b.certificates,
        )
    )

    # 7: theorem, forward direction.
    steps.append(
        _derive_step(
            7,
            "theorem forward: identity_1_2 from hom_malcev",
            identity_1_2,
            [hom_malcev],
            bounds,
            streams,
        )
    )

    # 8: theorem, converse direction.  The paper specializes w = y in
    # identity_1_2, which gives the displayed (2.7); with z and x swapped
    # and doubled it gives (2.8); and (2.7) - (2.8) is -3 times hom_malcev
    # at y, z, x.  Each is an equality of the normal forms of DSL texts,
    # and each text is parsed once.
    def xyz(text):
        return identity_from_dsl("vars x,y,z; " + text).poly

    e27 = xyz("identity_1_2(y,x,y,z)")
    replay_ok = (
        e27 == xyz("J(y*x,a(y),a(z)) - a2(y)*J(y,z,x) + 2*J(a(y),a(x),y*z)")
        and xyz("2*identity_1_2(y,z,y,x)") == xyz(
            "4*J(a(y),a(z),y*x) + 2*a2(y)*J(y,z,x) + 2*J(y*z,a(y),a(x))"
        )
        and e27 == xyz("2*identity_1_2(y,z,y,x) - 3*hom_malcev(y,z,x)")
    )
    step8 = _derive_step(
        8,
        "theorem converse: hom_malcev (polarized) from identity_1_2",
        hom_malcev,
        [identity_1_2],
        bounds,
        streams,
    )
    step8.passed = step8.passed and replay_ok
    step8.detail += "; specialization replay " + ("ok" if replay_ok else "FAILED")
    steps.append(step8)

    # 9: twist = identity reduction on the bundled concrete algebras.
    # Where the twist is Id, every a^p(u) evaluates as u, so hom_malcev
    # and strip_twist(hom_malcev) agree at every basis tuple; since the
    # latter has malcev's polarized normal form, one sweep gives both
    # verdicts.  Both premises are checked, and a failed one fails the step.
    premises = []
    if polarize(strip_twist(hom_malcev)).poly != polarize(catalog("malcev")).poly:
        premises.append("strip_twist(hom_malcev) is not malcev")
    notes = []
    specs = {name: load_algebra_file(name) for name in ("cross3", "m7")}
    for name, spec in specs.items():
        n = spec.dim
        if spec.twist != tuple(tuple(int(i == j) for j in range(n)) for i in range(n)):
            premises.append(f"{name} twist is not Id")
        hv = "Holds" if check_identity_concrete(spec, hom_malcev) is None else "fails"
        notes.append(f"{name}: hom_malcev={hv}, malcev={hv}")
    cross3_lie = check_identity_concrete(specs["cross3"], hom_jacobi) is None
    notes.append(f"cross3 hom_jacobi {'Holds' if cross3_lie else 'fails'}")
    detail = "; ".join(notes)
    if premises:
        detail += "; twist=Id premises FAILED: " + ", ".join(premises)
    steps.append(Step(9, "twist=Id reduction on concrete algebras",
                      cross3_lie and not premises, detail))

    return Report(steps)
