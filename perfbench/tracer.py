"""Per-layer tracing from the benchmark's side of the library boundary.

`Tracer.install()` rebinds public groupdual functions and methods to
wrappers, in every `groupdual.*` namespace that holds them (`codes` does
`from .groups import ...`, so patching `groups` alone would miss its
calls). `uninstall()` restores every binding. Nothing under `src/` changes.

Layer calls get a span (name, start, end, parent span, task id); spans
stay in memory until `write_spans`. Element-level operations are only
counted: timing them would cost more than the operations themselves.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# Spanned layer calls: (module, attribute, span name).
SPANS = [
    ("groupdual.cli", "run", "cli.run"),
    ("groupdual.groups", "automorphism_group", "groups.automorphism_group"),
    ("groupdual.groups", "subgroup_closure", "groups.subgroup_closure"),
    ("groupdual.dualities", "adjoint", "dualities.adjoint"),
    ("groupdual.dualities", "congruence_classes", "dualities.congruence_classes"),
    ("groupdual.codes", "left_dual", "codes.dual"),
    ("groupdual.codes", "right_dual", "codes.dual"),
    ("groupdual.codes", "extend_duality", "codes.extend_duality"),
    ("groupdual.codes", "duals_table", "codes.duals_table"),
    ("groupdual.codes", "mult_by_p_filtration", "codes.filtration"),
    ("groupdual.codes", "verify_filtration_duality", "codes.filtration"),
    ("groupdual.codes", "construct_duality_for_pair", "codes.construct_pair"),
] + [
    ("groupdual.enumerators", fn, f"enumerators.{fn}")
    for fn in ("mw_complete_transform", "mw_hamming_transform", "cwe", "hwe", "fourier_transform", "poisson_check")
]

# Counted element-level calls: (module, attribute, counter name).
COUNTS = [
    ("groupdual.dualities", "inner_product_exponent", "dualities.inner_product_exponent.calls"),
    ("groupdual.dualities", "conjugate_duality", "dualities.conjugate_duality.calls"),
    ("groupdual.cyclotomic", "_reduce", "cyclotomic.reduce.calls"),
    ("groupdual.cyclotomic", "root_power", "cyclotomic.root_power.calls"),
    ("groupdual.characters", "pairing_exponent", "characters.pairing_exponent.calls"),
]

# Calls from one namespace that also feed a counter of their own: only the
# dual-code scans call inner_product_exponent from codes.
NAMESPACE_COUNTS = {
    ("groupdual.codes", "inner_product_exponent"): "codes.scan.pair_evals",
}

# Counted methods: (module, class, method, counter name).
METHOD_COUNTS = [
    ("groupdual.groups", "Homomorphism", "apply", "groups.Homomorphism.apply.calls"),
    ("groupdual.groups", "GroupElement", "__post_init__", "groups.GroupElement.built"),
    ("groupdual.cyclotomic", "CycInt", "__mul__", "cyclotomic.CycInt.mul.calls"),
    ("groupdual.cyclotomic", "CycInt", "__add__", "cyclotomic.CycInt.add.calls"),
]

# Spans whose calls and self time are reported, by span name.
REPORTED_CALLS = [
    "groups.automorphism_group",
    "dualities.adjoint",
    "groups.subgroup_closure",
    "codes.dual",
    "codes.extend_duality",
]
REPORTED_SELF = REPORTED_CALLS + [
    "dualities.congruence_classes",
    "codes.duals_table",
    "codes.filtration",
    "codes.construct_pair",
    "enumerators.mw_complete_transform",
    "enumerators.mw_hamming_transform",
    "enumerators.cwe",
    "enumerators.hwe",
    "enumerators.fourier_transform",
    "enumerators.poisson_check",
    "cli.run",
]
REPORTED_COUNTS = [name for _, _, name in COUNTS] + [name for *_, name in METHOD_COUNTS] + [
    "groups.is_bijective.calls",
    "codes.scan.pair_evals",
    "limits.exceeded",
]


def _with_unit(value, unit):
    return {"value": value, "unit": unit}


class Tracer:
    def __init__(self):
        self.counts = Counter()
        # [name, start, end, parent span index or -1, task id]
        self.spans = []
        self._stack = []
        self.task = -1
        self._seen_specs = set()
        self._saved = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.task)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, fn, *names):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for name in names:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _aut_before(self, args):
        spec = args[0]
        if spec in self._seen_specs:
            self.counts["aut.repeats"] += 1
        self._seen_specs.add(spec)

    def _aut_after(self, args, result):
        self.counts["aut.returned"] += len(result)

    def _closure_after(self, args, result):
        self.counts["groups.subgroup_closure.gen_steps"] += len(result.elements) * len(result.generators)

    def _dual_after(self, args, result):
        self.counts["scan.members"] += result.order
        self.counts["scan.space"] += args[0].power.spec.cardinality

    def _is_bijective(self, fn):
        counts = self.counts
        from groupdual.groups import Homomorphism

        def wrapper(hom):
            counts["groups.is_bijective.calls"] += 1
            # automorphism_group tests every candidate matrix as a plain
            # Homomorphism; Automorphism construction re-checks its own.
            if type(hom) is Homomorphism:
                counts["aut.candidates"] += 1
            return fn(hom)

        return wrapper

    def _limit_check(self, fn):
        from groupdual.limits import LimitExceededError

        counts = self.counts

        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except LimitExceededError:
                counts["limits.exceeded"] += 1
                raise

        return wrapper

    # -- installation -----------------------------------------------------

    def _rebind(self, module_name, attr, make_wrapper):
        """Replace every groupdual.* binding of module.attr; make_wrapper
        receives the namespace's module name and the original."""
        original = getattr(sys.modules[module_name], attr)
        for name, module in list(sys.modules.items()):
            if name != "groupdual" and not name.startswith("groupdual."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, key, original))
                    setattr(module, key, make_wrapper(name, original))

    def install(self):
        import groupdual.cli  # noqa: F401  (loads every groupdual module)

        hooks = {
            "groups.automorphism_group": (self._aut_before, self._aut_after),
            "groups.subgroup_closure": (None, self._closure_after),
            "codes.dual": (None, self._dual_after),
        }
        for module_name, attr, span in SPANS:
            before, after = hooks.get(span, (None, None))

            def spanned(_, fn, span=span, before=before, after=after):
                return self._span(span, fn, before, after)

            self._rebind(module_name, attr, spanned)
        for module_name, attr, counter in COUNTS:

            def counted(namespace, fn, attr=attr, counter=counter):
                extra = NAMESPACE_COUNTS.get((namespace, attr))
                return self._count(fn, counter, *([extra] if extra else []))

            self._rebind(module_name, attr, counted)
        for attr in ("check_enumeration", "check_scan"):
            self._rebind("groupdual.limits", attr, lambda _, fn: self._limit_check(fn))
        for module_name, cls_name, method, counter in METHOD_COUNTS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[method]
            self._saved.append((cls, method, original))
            setattr(cls, method, self._count(original, counter))
        cls = sys.modules["groupdual.groups"].Homomorphism
        self._saved.append((cls, "is_bijective", cls.__dict__["is_bijective"]))
        cls.is_bijective = self._is_bijective(cls.__dict__["is_bijective"])

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self):
        """Every per-layer metric except trace.overhead_frac."""
        calls = Counter()
        self_s = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        c = self.counts
        out = {}
        for name in REPORTED_CALLS:
            out[f"{name}.calls"] = _with_unit(calls[name], "count")
        for name in REPORTED_SELF:
            out[f"{name}.self_s"] = _with_unit(float(self_s[name]), "s")
        for name in REPORTED_COUNTS:
            out[name] = _with_unit(c[name], "count")
        out["groups.subgroup_closure.gen_steps"] = _with_unit(c["groups.subgroup_closure.gen_steps"], "count")
        aut_calls = calls["groups.automorphism_group"]
        out["groups.automorphism_group.repeat_frac"] = _with_unit(
            c["aut.repeats"] / aut_calls if aut_calls else 0.0, "ratio"
        )
        out["groups.aut_yield"] = _with_unit(
            c["aut.returned"] / c["aut.candidates"] if c["aut.candidates"] else 0.0, "ratio"
        )
        out["codes.scan_yield"] = _with_unit(
            c["scan.members"] / c["scan.space"] if c["scan.space"] else 0.0, "ratio"
        )
        return out

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "task"], "spans": self.spans}, fh)
