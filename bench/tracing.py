"""Outside-in tracing of homcheck's public functions.

Engine modules import functions by name (``from .identities import
substitute``), so patching the defining module alone would miss most
calls.  ``Tracer.install`` replaces every reference to a traced function
in every loaded ``homcheck`` module, and ``uninstall`` puts the
originals back.

Each traced call records its busy time and subtracts it from its caller's
self time.  Calls of ordinary functions also keep a span (job, span id,
parent span id, name, start, end) in memory; ``write`` stores them once,
at the end.  Functions called 10^4 or more times per job only add to a
counter and a summed time, and ``algebras.multiply`` only counts.
"""

from __future__ import annotations

import json
import sys
import time

SPAN = "span"
SUMMED = "summed"
COUNT = "count"

# (module, function, mode)
TRACED = (
    ("cli", "main", SPAN),
    ("verify", "verify_paper", SPAN),
    ("consequence", "derive", SPAN),
    ("consequence", "generate_instances", SPAN),
    ("consequence", "enumerate_monomials", SPAN),
    ("consequence", "span_membership", SPAN),
    ("identities", "substitute", SUMMED),
    ("identities", "polarize", SPAN),
    ("algebras", "check_identity_concrete", SPAN),
    ("algebras", "load_algebra_file", SPAN),
    ("algebras", "yau_twist", SPAN),
    ("algebras", "multiply", COUNT),
    ("dsl", "parse_expr", SPAN),
    ("dsl", "format_expr", SPAN),
    ("normalform", "normalize", SPAN),
)


class Stat:
    __slots__ = ("calls", "busy", "self_time")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.stats = {f"{mod}.{fn}": Stat() for mod, fn, _ in TRACED}
        self.modes = {f"{mod}.{fn}": mode for mod, fn, mode in TRACED}
        self.counts = {
            "substitute_zero": 0,
            "instances_built": 0,
            "instances_needed": 0,
            "certificate_rows": 0,
            "residual_monomials": 0,
            "tuples_evaluated": 0,
            "parse_chars": 0,
        }
        self.spans = []
        self.job = 0
        self._stack = []  # [child time, span id] per open traced call
        self._patched = []

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn, keep_span, observe):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            # a summed call passes its caller's span on to its own callees
            frame = [0.0, len(spans) if keep_span else parent]
            if keep_span:
                spans.append(None)  # reserve the id; filled in on return
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dt = end - start
                stat.calls += 1
                stat.busy += dt
                stat.self_time += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if keep_span:
                    spans[frame[1]] = (self.job, frame[1], parent, name, start, end)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        stat = self.stats[name]

        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- observers: counts taken from arguments and results ------------------

    def _substitute(self, args, result):
        if result.poly.is_zero:
            self.counts["substitute_zero"] += 1

    def _generate_instances(self, args, result):
        self.counts["instances_built"] += len(result)

    def _span_membership(self, args, result):
        instances = args[1]
        rows = getattr(result, "rows", None)
        if rows is None:  # NotInSpan: elimination consumed every instance
            self.counts["instances_needed"] += len(instances)
            self.counts["residual_monomials"] += result.residual_monomials
            return
        index = {id(inst): i for i, inst in enumerate(instances)}
        self.counts["certificate_rows"] += len(rows)
        self.counts["instances_needed"] += max((index[id(inst)] for inst, _ in rows),
                                               default=-1) + 1

    def _check_identity_concrete(self, args, result):
        spec, ident = args[0], args[1]
        # variables after polarization: a degree-d variable becomes d
        m = sum(max(d, 1) for d in ident.degrees)
        if result is None:
            self.counts["tuples_evaluated"] += spec.dim ** m
            return
        rank = 0
        for i in result.tuple_indices:  # lexicographic rank of the tuple
            rank = rank * spec.dim + (i - 1)
        self.counts["tuples_evaluated"] += rank + 1

    def _parse_expr(self, args, result):
        self.counts["parse_chars"] += len(args[0])

    # -- install / uninstall -----------------------------------------------

    def install(self):
        observers = {
            "identities.substitute": self._substitute,
            "consequence.generate_instances": self._generate_instances,
            "consequence.span_membership": self._span_membership,
            "algebras.check_identity_concrete": self._check_identity_concrete,
            "dsl.parse_expr": self._parse_expr,
        }
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "homcheck" or n.startswith("homcheck."))]
        for mod_name, fn_name, mode in TRACED:
            name = f"{mod_name}.{fn_name}"
            original = getattr(sys.modules[f"homcheck.{mod_name}"], fn_name)
            if mode == COUNT:
                wrapper = self._counted(name, original)
            else:
                wrapper = self._timed(name, original, mode == SPAN, observers.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, overhead_frac):
        """Per-layer metrics, name -> (value, unit)."""
        s, c = self.stats, self.counts
        sub = s["identities.substitute"]
        parse = s["dsl.parse_expr"]
        built = c["instances_built"]
        out = {
            "consequence.generate_instances.busy_s": (s["consequence.generate_instances"].busy, "s"),
            "consequence.generate_instances.self_s": (s["consequence.generate_instances"].self_time, "s"),
            "identities.substitute.calls": (sub.calls, "count"),
            "identities.substitute.busy_s": (sub.busy, "s"),
            "identities.substitute.zero_frac": (c["substitute_zero"] / sub.calls if sub.calls else 0.0, "ratio"),
            "consequence.instances_built": (built, "count"),
            "consequence.instances_needed": (c["instances_needed"], "count"),
            "consequence.useful_frac": (c["instances_needed"] / built if built else 0.0, "ratio"),
            "consequence.certificate_rows": (c["certificate_rows"], "count"),
            "consequence.residual_monomials": (c["residual_monomials"], "count"),
            "algebras.tuples_evaluated": (c["tuples_evaluated"], "count"),
            "algebras.multiply.calls": (s["algebras.multiply"].calls, "count"),
            "dsl.parse_expr.chars_per_s": (c["parse_chars"] / parse.busy if parse.busy else 0.0, "1/s"),
            "cli.main.self_s": (s["cli.main"].self_time, "s"),
            "verify.verify_paper.self_s": (s["verify.verify_paper"].self_time, "s"),
            "trace.overhead_frac": (overhead_frac, "ratio"),
        }
        for name in ("consequence.enumerate_monomials", "consequence.derive",
                     "algebras.check_identity_concrete", "dsl.parse_expr",
                     "dsl.format_expr", "normalform.normalize", "identities.polarize"):
            out[f"{name}.calls"] = (s[name].calls, "count")
            out[f"{name}.busy_s"] = (s[name].busy, "s")
        for name in ("consequence.span_membership", "algebras.load_algebra_file",
                     "algebras.yau_twist"):
            out[f"{name}.busy_s"] = (s[name].busy, "s")
        out["cli.main.calls"] = (s["cli.main"].calls, "count")
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({
                "fields": ["job", "span", "parent", "name", "start_s", "end_s"],
                "spans": [sp for sp in self.spans if sp is not None],
                "summed": {n: {"calls": st.calls, "busy_s": st.busy}
                           for n, st in self.stats.items() if self.modes[n] != SPAN},
            }, fh)
