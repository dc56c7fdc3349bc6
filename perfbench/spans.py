"""Spans around the public functions of each aalogic module, installed from
outside the package.

``from .x import f`` gives every importing module its own binding of ``f``, so
a function is wrapped at every module attribute that holds it. A span records
its name, start, end and the span that was open when it began. Only the
outermost call of a function is recorded: a call made while the same
function is already open (recursion) runs unwrapped and counts toward the
open span. Self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array

LAYERS = {
    "syntax": ("parse_formula", "enumerate_formulas", "substitute", "formula_over", "variables"),
    "provers": ("cpc_decide", "ipc_decide", "kripke_countermodel", "quasiidentity_holds"),
    "semantics": ("consequence", "matrix_satisfies", "reduct", "satisfaction_condition_check"),
    "algebra": (
        "homomorphisms", "leibniz", "leibniz_bruteforce", "congruence_generated",
        "filter_closure", "theorem_values",
    ),
    "algebraization": (
        "check_bp_conditions", "is_lindenbaum", "qv_axioms", "tau_translate", "delta_translate",
    ),
    "glivenko": (
        "glivenko_equivalence", "rho_translate", "matrix_compatibility_check",
        "lind_compatibility_check", "GlivenkoContext.adjoint", "regular_elements",
        "left_adjoint_quotient", "find_adjoint_report",
    ),
    "institutions": ("institution_report",),
}
INSTITUTION_KINDS = ("If", "InsAL", "InsLAL")
BP_CONDITIONS = "abcde"


def span_names() -> list[str]:
    """Every span name; ``institution_report`` has one per suite kind."""
    names = []
    for layer, functions in LAYERS.items():
        for fn in functions:
            if fn == "institution_report":
                names += [f"{layer}.{fn}.{kind}" for kind in INSTITUTION_KINDS]
            else:
                names.append(f"{layer}.{fn}")
    return names


def counter_names() -> list[str]:
    """Counts taken at a span boundary from arguments and results."""
    return (
        ["provers.kripke_countermodel.found", "algebra.homomorphisms.found",
         "algebra.homomorphisms.candidates"]
        + [f"algebraization.check_bp_conditions.instances_{c}" for c in BP_CONDITIONS]
        + ["algebraization.qv_axioms.axioms", "glivenko.GlivenkoContext.adjoint.computed"]
        + [f"institutions.institution_report.{kind}.{field}"
           for kind in INSTITUTION_KINDS for field in ("checked", "violations")]
    )


class Tracer:
    def __init__(self):
        self.names = span_names()
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self.counters = dict.fromkeys(counter_names(), 0)

    def install(self) -> None:
        """Wrap every listed function at every loaded aalogic module
        attribute that binds it."""
        import importlib

        modules = [importlib.import_module(f"aalogic.{layer}") for layer in LAYERS]
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "aalogic" or name.startswith("aalogic.")]
        for layer, module in zip(LAYERS, modules):
            for fn in LAYERS[layer]:
                name = f"{layer}.{fn}"
                if "." in fn:
                    cls_name, method = fn.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, method, self._wrap(name, cls.__dict__[method]))
                    continue
                original = getattr(module, fn)
                wrapper = self._wrap(name, original)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def _wrap(self, name: str, fn):
        before, after = _HOOKS.get(name, (None, None))
        fixed_id = self._ids.get(name)
        # institution_report has one span name per suite kind
        kind_ids = None if fixed_id is not None else {
            kind: self._ids[f"{name}.{kind}"] for kind in INSTITUTION_KINDS
        }
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, open_spans = self.span_start, self.span_end, self._open
        counters = self.counters
        clock = time.perf_counter
        active = False

        def wrapper(*args, **kwargs):
            nonlocal active
            if active:
                return fn(*args, **kwargs)
            note = before(args) if before else None
            ident = len(span_start)
            span_name.append(fixed_id if kind_ids is None else kind_ids[_suite_kind(args, kwargs)])
            span_parent.append(open_spans[-1] if open_spans else -1)
            span_end.append(0.0)
            open_spans.append(ident)
            active = True
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[ident] = clock()
                open_spans.pop()
                active = False
            if after:
                after(counters, result, args, kwargs, note)
            return result

        return wrapper

    def summary(self) -> dict[str, float]:
        """calls, total_s and self_s per span name, plus the counters."""
        n = len(self.names)
        calls, total, own = [0] * n, [0.0] * n, [0.0] * n
        children = array("d", [0.0]) * len(self.span_start)
        for start, end, parent in zip(self.span_start, self.span_end, self.span_parent):
            if parent >= 0:
                children[parent] += end - start
        for i, (k, start, end) in enumerate(zip(self.span_name, self.span_start, self.span_end)):
            calls[k] += 1
            total[k] += end - start
            own[k] += end - start - children[i]
        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.total_s"] = total[k]
            out[f"{name}.self_s"] = own[k]
        out.update(self.counters)
        out["trace.spans"] = len(self.span_start)
        return out


def _suite_kind(args, kwargs) -> str:
    return args[0] if args else kwargs["kind"]


def _count_homomorphisms(counters, result, args, kwargs, note):
    A, B = (args + (kwargs.get("A"), kwargs.get("B")))[:2]
    counters["algebra.homomorphisms.found"] += len(result)
    counters["algebra.homomorphisms.candidates"] += B.size ** A.size


def _count_countermodel(counters, result, args, kwargs, note):
    counters["provers.kripke_countermodel.found"] += result is not None


def _count_bp(counters, result, args, kwargs, note):
    for c in BP_CONDITIONS:
        if c in result.conditions:
            counters[f"algebraization.check_bp_conditions.instances_{c}"] += result.conditions[c].instances


def _count_axioms(counters, result, args, kwargs, note):
    counters["algebraization.qv_axioms.axioms"] += len(result)


def _adjoint_missing(args) -> bool:
    """Whether the context's adjoint cache lacks the algebra (False when the
    context has no such cache)."""
    cache = getattr(args[0], "_adjoint_cache", None)
    return cache is not None and args[1] not in cache


def _count_adjoint(counters, result, args, kwargs, note):
    counters["glivenko.GlivenkoContext.adjoint.computed"] += note


def _count_suite(counters, result, args, kwargs, note):
    prefix = f"institutions.institution_report.{_suite_kind(args, kwargs)}"
    counters[f"{prefix}.checked"] += result.checked
    counters[f"{prefix}.violations"] += len(result.violations)


_HOOKS = {
    "algebra.homomorphisms": (None, _count_homomorphisms),
    "provers.kripke_countermodel": (None, _count_countermodel),
    "algebraization.check_bp_conditions": (None, _count_bp),
    "algebraization.qv_axioms": (None, _count_axioms),
    "glivenko.GlivenkoContext.adjoint": (_adjoint_missing, _count_adjoint),
    "institutions.institution_report": (None, _count_suite),
}
