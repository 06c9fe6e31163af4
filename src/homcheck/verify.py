"""Scripted replay of the equivalence proof between the Hom-Malcev
identity and its four-variable companion, as a nine-step report.

The proof is data: ``PROOF`` holds one entry per step, its number, title
and checks, and one runner evaluates every step the same way.  A check
is a tuple (kind, *arguments), and an identity in it is a catalog name
or ``vars ...; body`` DSL text.  There are four kinds:

- ``free``: a normal-form check with no axioms, that an identity has
  the given variable swap blocks, or vanishes when they are None;
- ``derive``: a consequence derivation of a target from one axiom,
  whose certificate goes into the report;
- ``equal``: equalities of the normal forms of DSL texts over the same
  variables; step 8 replays the paper's proof of the converse this way,
  so that replay uses only the parser and the normal form;
- ``sweep``: an identity checked on a bundled concrete algebra, whose
  verdict counts, with premises.  ``stripped`` is the premise that ``strip_twist`` of one
  identity has another's polarized normal form; a sweep that reads its
  verdict as that other identity's also needs the twist to be the
  identity matrix.  Where the twist is Id, every leaf a^p(u) evaluates
  as u, so the identity takes the value of its stripped form at every
  basis tuple.

The runner ANDs a step's verdicts, joins the non-empty details with
"; " and appends any failed premise, which fails the step.

Each job is done once per call.  Steps 3-8 pass one dict to ``derive``,
so derives over the same axiom, variables, components and K read one
lazy instance stream (steps 4-7 all read the hom_malcev stream over
w, x, y, z).  Each identity and DSL text is built once, each bundled
algebra is loaded once by its bundled name, never from the working
directory, and step 9 sweeps hom_malcev once per algebra.
"""

from __future__ import annotations

from functools import cache

from .algebras import check_identity_concrete, load_bundled
from .consequence import Certificate, SearchBounds, derive
from .identities import catalog, identity_from_dsl, strip_twist
from .normalform import Record

NO_AXIOMS = "normal-form check, no axioms"

PROOF = (
    (1, "Hom-Jacobian skew-symmetry (6 permutations)", (
        # one antisymmetric block of all three variables: 6 permutations
        ("free", "hom_jacobi", (((0, 1, 2), -1),), NO_AXIOMS),
    )),
    (2, "four-variable Jacobian relation vanishes freely", (
        ("free", "lemma_2_4_ii", None, NO_AXIOMS),
    )),
    (3, "G skew-symmetry (free swaps + repeated-argument vanishing)", (
        ("derive", "vars y,x,z; G(y,x,y,z)", "hom_malcev"),
        ("free", "vars w,x,y,z; G(w,x,y,z)", (((0, 1), -1), ((2, 3), -1)),
         "", "free swap checks FAILED"),
    )),
    (4, "cyclic Jacobian sum (eq_2_2)", (
        ("derive", "eq_2_2", "hom_malcev"),
    )),
    (5, "2G through Jacobians (eq_2_3)", (
        ("derive", "eq_2_3", "hom_malcev"),
    )),
    (6, "alternating sum (eq_2_5) and G formula (eq_2_4)", (
        ("derive", "eq_2_5", "hom_malcev", "eq_2_5: "),
        ("derive", "eq_2_4", "hom_malcev", "eq_2_4: "),
    )),
    (7, "theorem forward: identity_1_2 from hom_malcev", (
        ("derive", "identity_1_2", "hom_malcev"),
    )),
    (8, "theorem converse: hom_malcev (polarized) from identity_1_2", (
        ("derive", "hom_malcev", "identity_1_2"),
        # w = y in identity_1_2 gives the displayed (2.7); with z and x
        # swapped and doubled it gives (2.8); and (2.7) - (2.8) is -3
        # times hom_malcev at y, z, x
        ("equal", "specialization replay", "x,y,z", (
            ("identity_1_2(y,x,y,z)",
             "J(y*x,a(y),a(z)) - a2(y)*J(y,z,x) + 2*J(a(y),a(x),y*z)"),
            ("2*identity_1_2(y,z,y,x)",
             "4*J(a(y),a(z),y*x) + 2*a2(y)*J(y,z,x) + 2*J(y*z,a(y),a(x))"),
            ("identity_1_2(y,x,y,z)",
             "2*identity_1_2(y,z,y,x) - 3*hom_malcev(y,z,x)"),
        )),
    )),
    (9, "twist=Id reduction on concrete algebras", (
        ("stripped", "hom_malcev", "malcev"),
        ("sweep", "cross3", "hom_malcev", "malcev"),
        ("sweep", "m7", "hom_malcev", "malcev"),
        ("sweep", "cross3", "hom_jacobi"),
    )),
)


class Step(Record):
    _fields = ("number", "title", "passed", "detail", "certificates")
    __hash__ = None

    def __init__(self, number, title, passed, detail="", certificates=None):
        self.number, self.title, self.passed = number, title, passed
        self.detail = detail
        self.certificates = [] if certificates is None else certificates

    def to_obj(self):
        obj = {
            "step": self.number,
            "title": self.title,
            "passed": self.passed,
            "detail": self.detail,
        }
        if self.certificates:
            obj["certificates"] = [c.rows_obj() for c in self.certificates]
        return obj


class Report(Record):
    """The replay's steps; ``to_obj`` is the document ``verify-paper
    --format json`` prints and ``to_text`` the text it prints."""

    _fields = ("steps",)
    __hash__ = None

    def __init__(self, steps):
        self.steps = steps

    @property
    def passed(self):
        return all(s.passed for s in self.steps)

    def to_obj(self):
        return {"passed": self.passed, "steps": [s.to_obj() for s in self.steps]}

    def to_text(self):
        lines = [
            f"step {s.number}/{len(self.steps)}: {'PASS' if s.passed else 'FAIL'}"
            f" - {s.title}" + (f" ({s.detail})" if s.detail else "")
            for s in self.steps
        ]
        return "\n".join(lines + ["overall: " + ("PASS" if self.passed else "FAIL")])


class _Run:
    """One replay: its bounds, the instance streams steps 3-8 share, and
    the identities and algebras it has built; each check returns its
    verdict and detail."""

    def __init__(self, bounds):
        self.bounds, self.streams = bounds, {}
        self.identity = cache(
            lambda src: identity_from_dsl(src) if ";" in src else catalog(src)
        )
        self.algebra = cache(load_bundled)

    def step(self, number, title, checks):
        self.certificates, self.premises = [], []
        results = [getattr(self, "_" + kind)(*args) for kind, *args in checks]
        detail = "; ".join(d for _, d in results if d)
        if self.premises:
            detail += "; twist=Id premises FAILED: " + ", ".join(self.premises)
        passed = all(ok for ok, _ in results) and not self.premises
        return Step(number, title, passed, detail, self.certificates)

    def _free(self, src, blocks, detail, failed=None):
        ident = self.identity(src)
        ok = ident.poly.is_zero if blocks is None else ident.swap_blocks == blocks
        return ok, detail if ok or failed is None else failed

    def _derive(self, target, axiom, label=""):
        res, _ = derive(self.identity(target), [self.identity(axiom)],
                        self.bounds, self.streams)
        if isinstance(res, Certificate):
            self.certificates.append(res)
            return True, f"{label}certificate with {len(res.rows)} rows"
        return False, (f"{label}not in span within bounds; residual has "
                       f"{res.residual_monomials} monomials")

    def _equal(self, label, variables, pairs):
        def poly(text):
            return self.identity(f"vars {variables}; {text}").poly

        ok = all(poly(lhs) == poly(rhs) for lhs, rhs in pairs)
        return ok, f"{label} {'ok' if ok else 'FAILED'}"

    def _stripped(self, src, plain):
        stripped = strip_twist(self.identity(src)).polarized
        if stripped.poly != self.identity(plain).polarized.poly:
            self.premises.append(f"strip_twist({src}) is not {plain}")
        return True, ""

    def _sweep(self, name, src, reads_as=None):
        spec = self.algebra(name)
        holds = check_identity_concrete(spec, self.identity(src)) is None
        v = "Holds" if holds else "fails"
        if reads_as is None:
            return holds, f"{name} {src} {v}"
        n = spec.dim
        if spec.twist != tuple(tuple(int(i == j) for j in range(n)) for i in range(n)):
            self.premises.append(f"{name} twist is not Id")
        return holds, f"{name}: {src}={v}, {reads_as}={v}"


def verify_paper(bounds=None):
    """Run the steps of PROOF in order and report each."""
    run = _Run(bounds or SearchBounds())
    return Report([run.step(*entry) for entry in PROOF])
