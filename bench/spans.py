"""Span recorder that measures jetvar's modules from outside the package.

`Recorder.install` replaces each public function named in LAYERS with a
timing wrapper, in every `jetvar.*` module namespace that binds it: the
defining module (so calls inside a module are seen) and every module that
imported the name with `from .expr import ...`.  A call made while the
same function's span is innermost runs unrecorded, so a recursive function
counts once per outermost call.

Spans stay in memory as [name, start_ns, end_ns, parent index, problem id]
and are written out by `write_spans` when the run ends.  A function's self time
is its span time minus the time of the spans nested directly inside it.
"""

from __future__ import annotations

import sys
import time
import types
from collections import Counter

LAYERS = {
    "expr": (
        "add",
        "mul",
        "pow_",
        "partial",
        "substitute",
        "evaluate",
        "integrate_param",
    ),
    "jets": ("total_derivative", "iterated_total_derivative", "prolong_section"),
    "forms": (
        "wedge",
        "form_add",
        "contact_decompose",
        "cartan_form",
        "pullback",
        "prolong_isomorphism",
        "differential",
    ),
    "variational": (
        "euler_lagrange",
        "helmholtz_residuals",
        "tonti_lagrangian",
        "naturality_report",
    ),
    "numeric": ("first_variation_check", "action", "residual_on_section"),
    "dsl": ("parse_expr", "render_expr", "render_form"),
    "problem": ("load_problem",),
}

FUNCTIONS = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)


def term_count(e) -> int:
    """Number of terms of a canonical expression (0 for the zero constant)."""
    terms = getattr(e, "terms", None)
    if terms is not None:
        return len(terms)
    return 0 if getattr(e, "value", None) == 0 else 1


class Recorder:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.problem = None
        self.partial_calls = 0
        self.partial_unique = 0
        self.partial_zero = 0
        self.out_terms = 0
        self._partial_args: list = []
        self._installed: list = []

    # --- recording ------------------------------------------------------------

    def begin_problem(self, problem_id) -> None:
        self.problem = problem_id

    def end_problem(self) -> None:
        """Count distinct (expression, coordinate) pairs among the problem's
        `partial` calls.  Hashing happens here, outside every span."""
        self.partial_unique += len(set(self._partial_args))
        self._partial_args.clear()
        self.problem = None

    def run_span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        spans, stack = self.spans, self.stack
        record = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, self.problem]
        stack.append(len(spans))
        spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter_ns()
            stack.pop()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        module = name.split(".", 1)[0]
        on_partial = name == "expr.partial"
        on_operator = module == "variational"

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            record = [name, clock(), 0, stack[-1] if stack else -1, self.problem]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_partial:
                self.partial_calls += 1
                self._partial_args.append(args[:2])
                if getattr(result, "value", None) == 0:
                    self.partial_zero += 1
            elif on_operator:
                self.out_terms += _output_terms(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every LAYERS function in every loaded jetvar module."""
        import jetvar  # noqa: F401  (the package imports every layer module)

        wrappers = {}
        for module, fns in LAYERS.items():
            namespace = sys.modules[f"jetvar.{module}"]
            for fn in fns:
                original = getattr(namespace, fn)
                wrappers[original] = self._wrap(f"{module}.{fn}", original)
        for modname, namespace in list(sys.modules.items()):
            if modname != "jetvar" and not modname.startswith("jetvar."):
                continue
            for attr, value in list(vars(namespace).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(namespace, attr, wrappers[value])
                    self._installed.append((namespace, attr, value))

    def uninstall(self) -> None:
        for namespace, attr, value in self._installed:
            setattr(namespace, attr, value)
        self._installed.clear()

    # --- results --------------------------------------------------------------

    def totals(self) -> dict:
        """Calls and self seconds per span name, plus the counters."""
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        spans = self.spans
        for name, start, end, parent, _ in spans:
            duration = end - start
            calls[name] += 1
            self_ns[name] += duration
            if parent >= 0:
                self_ns[spans[parent][0]] -= duration
        return {
            "calls": dict(calls),
            "self_s": {name: ns / 1e9 for name, ns in self_ns.items()},
            "partial_calls": self.partial_calls,
            "partial_unique": self.partial_unique,
            "partial_zero": self.partial_zero,
            "out_terms": self.out_terms,
        }


def _output_terms(result) -> int:
    """Terms across an operator's output: a source form's components, a
    Lagrangian's density, or a Helmholtz report's residuals."""
    if hasattr(result, "eps"):
        return sum(term_count(e) for e in result.eps)
    if hasattr(result, "L"):
        return term_count(result.L)
    if hasattr(result, "records"):
        return sum(term_count(rec.residual) for rec in result.records)
    return 0


def write_spans(path, groups) -> None:
    """Write spans as CSV; groups is a list of (process label, spans), and
    a span's parent is an index into its own group."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("process,name,start_ns,end_ns,parent,problem\n")
        for label, spans in groups:
            for name, start, end, parent, problem in spans:
                handle.write(f"{label},{name},{start},{end},{parent},{problem}\n")


def merge_totals(into: dict, other: dict) -> None:
    """Add the totals of another recorder (say, a child process's) into
    `into`."""
    for key in ("calls", "self_s"):
        for name, value in other[key].items():
            into[key][name] = into[key].get(name, 0) + value
    for key in ("partial_calls", "partial_unique", "partial_zero", "out_terms"):
        into[key] += other[key]
