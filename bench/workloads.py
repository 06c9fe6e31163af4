"""The benchmark's workloads: decks of CLI jobs with expected answers.

A deck is the fixed mix of jobs a workload repeats; a run executes
whole decks, so every run of a workload measures the same mix whatever
its seed or length.  The seed fixes the order of each deck and, for
``normal_forms``, the expressions themselves.  Each job carries an
expected answer that does not come from the code path being timed: a
hand-written verdict table (the reasons are next to each entry), values
recorded from the seed commit (certificate digests, first
counterexample tuples), or an evaluation with the independent oracle in
``model.py``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field

import model
from fresh_setup import TWISTED

NAMES = ("paper", "refute", "concrete", "normal_forms")

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class Job:
    kind: str
    argv: list
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# paper: the nine-step replay

# sha256 of each step's certificate rows, recorded from the seed commit.
# They are the same at K=0 and K=3: every certificate uses weight-0
# instances only.
PAPER_DIGESTS = {
    3: "07e13a984a72fd967a419f77ed4f904af2a7325da31166c313883258f9b60380",
    4: "cbad2b4c482f58f1e9765aaa6d44036949e16835ec529c72252c2266d10d3a9b",
    5: "a1836a765cd0b4839c2d06294c4e7342be0ed3d6b4fa04bbe9f6d164fc5edd88",
    6: "2160074e6b1c3c2da430a0a6cfedf3999a077c1b8d0a279f9b3955925e50ea75",
    7: "04ba44a4b40fba70f05241e5501887253eca8126637c5da561f80dd33cce125f",
    8: "68f96be7f41e17eeafc1e3b2acd7b536123875d1c17dbc6ed03d4ba1b874dea6",
}


def certificate_digest(certs):
    rows = [c["rows"] if isinstance(c, dict) else c for c in certs]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# A deck is three replays.  It outlasts the run length, so every run has
# exactly three jobs: the first pays the process's cold caches, and the
# median is a warm replay.
PAPER_JOBS = 3


def paper_deck(rng, tiny):
    k = 0 if tiny else 3
    return [Job("paper", ["verify-paper", "--K", str(k), "--format", "json"],
                {"rc": 0, "digests": PAPER_DIGESTS})
            for _ in range(1 if tiny else PAPER_JOBS)]


def check_paper(job, rc, out):
    if rc not in (0, 1):
        return FAILED, f"exit {rc}"
    try:
        report = json.loads(out)
        steps = {s["step"]: s for s in report["steps"]}
    except (ValueError, KeyError, TypeError):
        return FAILED, "unreadable report"
    if rc != job.expect["rc"] or not report["passed"]:
        return WRONG, f"exit {rc}, passed={report['passed']}"
    # Hand-written: every one of the nine steps holds (the paper's proof).
    if sorted(steps) != list(range(1, 10)) or not all(s["passed"] for s in steps.values()):
        return WRONG, "a step did not pass"
    for number, digest in job.expect["digests"].items():
        got = certificate_digest(steps[number].get("certificates", []))
        if got != digest:
            return WRONG, f"step {number} certificate digest {got[:12]}"
    return OK, ""


# ---------------------------------------------------------------------------
# refute: consequence checks whose right answer is NotInSpan

def _j(t, u, v):
    return f"({t})*({u})*({v}) + ({u})*({v})*({t}) + ({v})*({t})*({u})"


# identity_1_2 with the twist set to the identity map, Jacobians written out.
IDENTITY_1_2_TWIST_FREE = (
    f"{_j('w*x', 'y', 'z')} - ({_j('w', 'y', 'z')})*x"
    f" - w*({_j('x', 'y', 'z')}) + 2*({_j('y*z', 'w', 'x')})"
)

# Each target fails in yau_twist(m7_auto), which satisfies hom_malcev, so
# it is not a consequence of hom_malcev at any K (checked once per run by
# refute_model_check).  hom_jacobi is the vacuous control: 3 variables
# against the 4 of polarized hom_malcev, so derive builds no instance.
REFUTE_TARGETS = {
    "J(w*x,a(y),a(z))": lambda m, w, x, y, z: m.jacobian(
        m.mul(w, x), m.alpha(y), m.alpha(z)),
    "J(w*x,a(y),a(z)) + J(y*z,a(w),a(x))": lambda m, w, x, y, z: model.add([
        (1, m.jacobian(m.mul(w, x), m.alpha(y), m.alpha(z))),
        (1, m.jacobian(m.mul(y, z), m.alpha(w), m.alpha(x)))]),
    "a2(w)*J(x,y,z)": lambda m, w, x, y, z: m.mul(m.alpha(w, 2), m.jacobian(x, y, z)),
    "G(w,x,y,z)": lambda m, w, x, y, z: model.add([
        (1, m.jacobian(m.mul(w, x), m.alpha(y), m.alpha(z))),
        (-1, m.mul(m.alpha(x, 2), m.jacobian(w, y, z))),
        (-1, m.mul(m.jacobian(x, y, z), m.alpha(w, 2)))]),
    IDENTITY_1_2_TWIST_FREE: lambda m, w, x, y, z: model.add([
        (1, _j0(m, m.mul(w, x), y, z)),
        (-1, m.mul(_j0(m, w, y, z), x)),
        (-1, m.mul(w, _j0(m, x, y, z))),
        (2, _j0(m, m.mul(y, z), w, x))]),
    "hom_jacobi": lambda m, x, y, z: m.jacobian(x, y, z),
}


def _j0(m, t, u, v):
    return model.add([(1, m.mul(m.mul(t, u), v)), (1, m.mul(m.mul(u, v), t)),
                      (1, m.mul(m.mul(v, t), u))])


def _hom_malcev_polarized(m, x1, x2, y, z):
    # J(a(x),a(y),x*z) - J(x,y,z)*a2(x), multilinearized in x.
    return model.add([
        (1, m.jacobian(m.alpha(x1), m.alpha(y), m.mul(x2, z))),
        (1, m.jacobian(m.alpha(x2), m.alpha(y), m.mul(x1, z))),
        (-1, m.mul(m.jacobian(x1, y, z), m.alpha(x2, 2))),
        (-1, m.mul(m.jacobian(x2, y, z), m.alpha(x1, 2))),
    ])


def refute_model_check(data_dir):
    """Prove that every refute target fails in a model of hom_malcev.

    The model is the Yau twist of m7_auto.  hom_malcev holds there because
    its polarization vanishes on every basis tuple (complete by
    multilinearity); each target is nonzero on some basis tuple.
    """
    m = model.Model.from_file(os.path.join(data_dir, "m7_auto.json")).yau_twist()
    e = [m.basis(i) for i in range(m.dim)]
    for i, j in itertools.combinations_with_replacement(range(m.dim), 2):
        for k, l in itertools.product(range(m.dim), repeat=2):
            if _hom_malcev_polarized(m, e[i], e[j], e[k], e[l]):
                raise AssertionError("twisted m7_auto fails hom_malcev")
    for target, fn in REFUTE_TARGETS.items():
        arity = fn.__code__.co_argcount - 1
        if not any(fn(m, *(e[i] for i in tup))
                   for tup in itertools.product(range(m.dim), repeat=arity)):
            raise AssertionError(f"{target} holds in twisted m7_auto")


def refute_deck(rng, tiny):
    # K cycles 0, 1, 2, 3, 0, 1, ... and the seed orders the targets within
    # each K.  The median job is a K=1 job: cycling spreads those jobs over
    # the whole run, so they sample the machine's speed at many moments,
    # and every K=1 job follows the same kinds of job, so what earlier jobs
    # left in the process's caches does not depend on the seed.
    ks = (0,) if tiny else (0, 1, 2, 3)
    orders = []
    for _ in ks:
        targets = list(REFUTE_TARGETS)
        rng.shuffle(targets)
        orders.append(targets)
    return [Job("refute", ["derive", "--axiom", "hom_malcev", "--K", str(k),
                           "--format", "json", "--target", targets[i]], {"rc": 1, "K": k})
            for i in range(len(REFUTE_TARGETS)) for k, targets in zip(ks, orders)]


def check_refute(job, rc, out):
    if rc not in (0, 1):
        return FAILED, f"exit {rc}"
    try:
        obj = json.loads(out)
        status = obj["status"]
    except (ValueError, KeyError, TypeError):
        return FAILED, "unreadable result"
    if rc != job.expect["rc"] or status != "not_in_span":
        return WRONG, f"exit {rc}, status {status}"
    if obj.get("max_alpha_power") != job.expect["K"] or not obj.get("residual_monomials"):
        return WRONG, "wrong bound or empty residual"
    return OK, ""


# ---------------------------------------------------------------------------
# concrete: identity checks in bundled and twisted algebras

H = None  # Holds

# Hand-written verdicts.  m7 is Malcev and not Lie, with twist Id;
# m7_auto is m7 with an automorphism twist, so only twist-free identities
# hold; its Yau twist is Hom-Malcev but neither Malcev nor Hom-Lie; cross3
# is Lie with twist Id; cross3_rot is cross3 with a rotation twist;
# abelian4 has the zero product.  identity_1_2 is equivalent to
# hom_malcev (the paper's theorem).  A counterexample is the first failing
# basis tuple in lexicographic order, recorded from the seed commit.
CONCRETE = {
    ("m7", "hom_malcev"): H,
    ("m7", "malcev"): H,
    ("m7", "hom_jacobi"): [1, 2, 4],
    ("m7", "identity_1_2"): H,
    ("m7_auto", "hom_malcev"): [1, 1, 2, 4],
    ("m7_auto", "malcev"): H,
    ("m7_auto", "hom_jacobi"): [1, 2, 3],
    ("m7_auto", "identity_1_2"): [1, 2, 1, 3],
    (TWISTED, "hom_malcev"): H,
    (TWISTED, "malcev"): [1, 1, 2, 4],
    (TWISTED, "hom_jacobi"): [1, 2, 4],
    (TWISTED, "identity_1_2"): H,
    ("cross3", "hom_malcev"): H,
    ("cross3", "malcev"): H,
    ("cross3", "hom_jacobi"): H,
    ("cross3", "identity_1_2"): H,
    ("cross3_rot", "hom_malcev"): [1, 1, 2, 2],
    ("cross3_rot", "malcev"): H,
    ("cross3_rot", "hom_jacobi"): [1, 2, 3],
    ("cross3_rot", "identity_1_2"): [1, 2, 1, 2],
    ("abelian4", "hom_malcev"): H,
    ("abelian4", "malcev"): H,
    ("abelian4", "hom_jacobi"): H,
    ("abelian4", "identity_1_2"): H,
}

SMALL_ALGEBRAS = ("cross3", "cross3_rot", "abelian4")
FOUR_VARIABLES = ("hom_malcev", "malcev", "identity_1_2")
# The 4-variable sweeps that hold on the small algebras (81 or 256 tuples,
# about 15 ms) run three times per deck.  The deck then sorts into 11
# early exits, 21 small sweeps and 6 full 7^4 sweeps, so the median falls
# well inside the small sweeps and the nearest-rank p90 inside the full
# ones, instead of on the edge between two groups of jobs.
SMALL_SWEEP_COPIES = 3


def concrete_deck(rng, tiny, work_dir):
    jobs = []
    for (alg, ident), tup in CONCRETE.items():
        if tiny and (alg not in SMALL_ALGEBRAS or ident == "identity_1_2"):
            continue
        path = os.path.join(work_dir, alg) if alg == TWISTED else alg
        small_sweep = alg in SMALL_ALGEBRAS and ident in FOUR_VARIABLES and tup is H
        for _ in range(SMALL_SWEEP_COPIES if small_sweep and not tiny else 1):
            jobs.append(Job("concrete", ["check", "--format", "json", path, ident],
                            {"rc": 0 if tup is H else 1, "tuple": tup}))
    rng.shuffle(jobs)
    return jobs


def check_concrete(job, rc, out):
    if rc not in (0, 1):
        return FAILED, f"exit {rc}"
    try:
        obj = json.loads(out)
        verdict = obj["verdict"]
    except (ValueError, KeyError, TypeError):
        return FAILED, "unreadable result"
    if rc != job.expect["rc"]:
        return WRONG, f"exit {rc}, verdict {verdict}"
    if rc == 1 and obj.get("tuple") != job.expect["tuple"]:
        return WRONG, f"counterexample {obj.get('tuple')}"
    return OK, ""


# ---------------------------------------------------------------------------
# normal_forms: normalize / equal / polarize on random expressions

VARS = ("w", "x", "y", "z")
HEADER = "vars w,x,y,z; "
EXPR_CHARS = 120
DECK = 100  # 40 normalize, 40 equal (half equal pairs), 20 polarize
TINY_DECK = 20
HEADER_SHARE = 0.1  # of each kind, exactly, so the failed share is fixed


def normal_forms_deck(rng, tiny, oracle):
    n = TINY_DECK if tiny else DECK
    kinds = ["normalize"] * (2 * n // 5) + ["equal"] * (2 * n // 5)
    kinds += ["polarize"] * (n - len(kinds))
    headers = []
    for kind in ("normalize", "equal", "polarize"):
        idx = [i for i, k in enumerate(kinds) if k == kind]
        headers += rng.sample(idx, max(1, round(HEADER_SHARE * len(idx))))
    headers = set(headers)
    n_equal = kinds.count("equal")
    equal_flags = [True] * (n_equal // 2) + [False] * (n_equal - n_equal // 2)
    rng.shuffle(equal_flags)
    jobs = []
    for i, kind in enumerate(kinds):
        head = HEADER if i in headers else ""
        if kind == "normalize":
            jobs.append(_normalize_job(rng, oracle, head))
        elif kind == "equal":
            jobs.append(_equal_job(rng, oracle, head, equal_flags.pop()))
        else:
            jobs.append(_polarize_job(rng, oracle, head))
    rng.shuffle(jobs)
    return jobs


def _normalize_job(rng, oracle, head):
    terms = model.random_expr(rng, VARS, EXPR_CHARS)
    point = model.random_point(rng, oracle, VARS)
    return Job("normalize", ["normalize", "--", head + model.to_text(terms)],
               {"point": point, "value": model.evaluate(oracle, terms, point)})


def _equal_job(rng, oracle, head, equal):
    terms = model.random_expr(rng, VARS, EXPR_CHARS)
    other = model.equivalent(rng, terms)
    if not equal:
        # Certified unequal: the two sides differ at a point of a concrete
        # multiplicative Hom-algebra, so they differ in the free algebra.
        point = model.random_point(rng, oracle, VARS)
        base = model.evaluate(oracle, terms, point)
        while True:
            cand = model.perturbed(rng, other)
            if model.evaluate(oracle, cand, point) != base:
                other = cand
                break
    pair = [head + model.to_text(terms), head + model.to_text(other)]
    rng.shuffle(pair)
    return Job("equal", ["equal", "--", *pair], {"rc": 0 if equal else 1})


def _polarize_job(rng, oracle, head):
    # multihomogeneous: every term uses the same leaves; one leaf is
    # replaced by another (the same one a quarter of the time), so usually
    # one variable appears twice
    leaves = list(VARS)
    leaves[rng.randrange(4)] = leaves[rng.randrange(4)]
    terms = model.random_expr(rng, VARS, EXPR_CHARS, multiset=leaves)
    point = model.random_point(rng, oracle, VARS)
    # setting the fresh copies of a degree-d variable back to it gives d!
    # times the original
    factor = math.prod(math.factorial(leaves.count(v)) for v in set(leaves))
    value = model.add([(factor, model.evaluate(oracle, terms, point))])
    return Job("polarize", ["polarize", "--format", "json", "--", head + model.to_text(terms)],
               {"point": point, "value": value})


def check_normal_forms(job, rc, out, oracle):
    if job.kind == "equal":
        if rc not in (0, 1):
            return FAILED, f"exit {rc}"
        text = out.strip()
        if text not in ("equal", "not equal"):
            return FAILED, f"unreadable answer {text!r}"
        if rc != job.expect["rc"] or (text == "equal") != (rc == 0):
            return WRONG, f"exit {rc}, {text}"
        return OK, ""
    if rc != 0:
        return FAILED, f"exit {rc}"
    try:
        text = json.loads(out)["polarized"] if job.kind == "polarize" else out
        value = model.evaluate_text(oracle, text, job.expect["point"])
    except (ValueError, KeyError, TypeError) as exc:
        return FAILED, f"unreadable output: {exc}"
    if value != job.expect["value"]:
        return WRONG, "value differs from the input's"
    return OK, ""


# ---------------------------------------------------------------------------

class Workload:
    """Deck builder and checker of one workload."""

    def __init__(self, name, seed, tiny, work_dir, data_dir):
        self.name = name
        self.seed = seed
        self.tiny = tiny
        self.work_dir = work_dir
        self.data_dir = data_dir
        self.rng = random.Random(f"{name}:{seed}")
        self.oracle = model.Model.from_file(os.path.join(data_dir, "m7_auto.json"))

    def precheck(self):
        if self.name == "refute":
            refute_model_check(self.data_dir)

    def deck(self):
        if self.name == "paper":
            return paper_deck(self.rng, self.tiny)
        if self.name == "refute":
            return refute_deck(self.rng, self.tiny)
        if self.name == "concrete":
            return concrete_deck(self.rng, self.tiny, self.work_dir)
        return normal_forms_deck(self.rng, self.tiny, self.oracle)

    def check(self, job, rc, out):
        if job.kind == "paper":
            return check_paper(job, rc, out)
        if job.kind == "refute":
            return check_refute(job, rc, out)
        if job.kind == "concrete":
            return check_concrete(job, rc, out)
        return check_normal_forms(job, rc, out, self.oracle)
