"""Span tracer for the traced benchmark run, patched around replica's public functions.

Each call to a wrapped function records a span ``[name, start, end, parent,
request]``: the span that was open when it started is its parent, and spans
of one CLI request share the request's index. A layer's self time is its
span's duration minus the time covered by its child spans.

The modules import these functions by name (``from .precision import
nth_root``), so patching the defining module is not enough: every binding in
every loaded ``replica`` module is replaced, and so are the entries of module
level dicts such as ``transforms.DESCEND``. :meth:`Tracer.installed` restores
all of them on exit.

Solver counts are read from return values, never from timing: ``steps`` and
``confirm_steps`` from ``RunResult.trace[*].delta_exp``, the distinct couple
keys from the ``(s, w, working_digits)`` arguments of ``couple_product``.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

#: span name -> (defining module, functions recorded under that name)
SPANS = {
    "precision.nth_root": ("replica.precision", ("nth_root",)),
    "precision.pow_rational": ("replica.precision", ("pow_rational",)),
    "precision.to_sig_digits": ("replica.precision", ("to_sig_digits",)),
    "transforms.descend": ("replica.transforms", ("quad_descend", "cubic_descend", "quartic_descend")),
    "algorithms.run": ("replica.algorithms", ("run_borwein", "run_ellipse")),
    "algorithms.postprocess_constant": ("replica.algorithms", ("postprocess_constant",)),
    "series.evaluate_series": ("replica.series", ("evaluate_series",)),
    "series.couple_product": ("replica.series", ("couple_product",)),
    "series.ellipse_factor": ("replica.series", ("ellipse_factor",)),
}

#: per-layer metric name -> unit, in the order they are reported
LAYER_METRICS = {
    "cli.main.calls": "count",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "precision.nth_root.calls": "count",
    "precision.nth_root.s": "s",
    "precision.pow_rational.calls": "count",
    "precision.pow_rational.s": "s",
    "precision.to_sig_digits.calls": "count",
    "precision.to_sig_digits.s": "s",
    "transforms.descend.calls": "count",
    "transforms.descend.self_s": "s",
    "algorithms.run.calls": "count",
    "algorithms.run.self_s": "s",
    "algorithms.run.failed": "count",
    "algorithms.steps": "count",
    "algorithms.confirm_steps": "count",
    "algorithms.postprocess_constant.calls": "count",
    "algorithms.postprocess_constant.s": "s",
    "series.evaluate_series.calls": "count",
    "series.evaluate_series.s": "s",
    "series.couple_product.calls": "count",
    "series.couple_product.distinct": "count",
    "series.couple_product.s": "s",
    "series.ellipse_factor.calls": "count",
    "series.ellipse_factor.refused": "count",
}


def _context_arg(args, kwargs):
    """The PrecisionContext among a call's arguments (replica passes it last)."""
    ctx = kwargs.get("ctx")
    if ctx is None:
        ctx = next(a for a in reversed(args) if hasattr(a, "working_digits"))
    return ctx


def count_steps(trace, target_digits: int) -> tuple[int, int]:
    """(steps, confirm_steps) of one run trace.

    ``confirm_steps`` counts the steps after the first whose delta is below
    the stopping threshold 10**-(target_digits + 8); ``delta_exp`` is None
    when the delta is exactly 0.
    """
    deltas = [state.delta_exp for state in trace[1:]]
    limit = -(target_digits + 8)
    for i, exp in enumerate(deltas):
        if exp is None or exp < limit:
            return len(deltas), len(deltas) - 1 - i
    return len(deltas), 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request: int | None = None
        self.counts = Counter()
        self.couple_keys: set = set()
        self.request_steps = Counter()
        self.missing: list[str] = []

    def wrap(self, name: str, fn, on_return=None, on_raise=None):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.request]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_raise is not None:
                    on_raise(exc)
                raise
            finally:
                record[2] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        return traced

    # Hooks that read solver counts from arguments and return values.

    def _run_returned(self, result, args, kwargs):
        steps, confirm = count_steps(result.trace, _context_arg(args, kwargs).target_digits)
        self.counts["steps"] += steps
        self.counts["confirm_steps"] += confirm
        self.request_steps[self.request] += steps

    def _run_raised(self, exc):
        self.counts["run_failed"] += 1

    def _couple_called(self, result, args, kwargs):
        s = args[0] if args else kwargs["s"]
        w = args[1] if len(args) > 1 else kwargs["w"]
        self.couple_keys.add((s, w, _context_arg(args, kwargs).working_digits))

    def _ellipse_factor_raised(self, exc):
        if type(exc).__name__ == "SlowConvergenceError":
            self.counts["ellipse_factor_refused"] += 1

    @contextmanager
    def installed(self):
        """Replace every binding of the traced functions; restore them on exit."""
        hooks = {
            "algorithms.run": (self._run_returned, self._run_raised),
            "series.couple_product": (self._couple_called, None),
            "series.ellipse_factor": (None, self._ellipse_factor_raised),
        }
        replacement = {}
        for span, (module_name, names) in SPANS.items():
            module = importlib.import_module(module_name)
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{fname}")
                    continue
                replacement[id(fn)] = (fn, self.wrap(span, fn, *hooks.get(span, (None, None))))
        patched = []  # (namespace dict, key, original)
        for name, module in list(sys.modules.items()):
            if name != "replica" and not name.startswith("replica."):
                continue
            namespaces = [vars(module)]
            namespaces += [v for v in vars(module).values() if isinstance(v, dict)]
            for namespace in namespaces:
                for key, value in list(namespace.items()):
                    entry = replacement.get(id(value))
                    if entry is not None and entry[0] is value:
                        namespace[key] = entry[1]
                        patched.append((namespace, key, value))
        try:
            yield self
        finally:
            for namespace, key, original in patched:
                namespace[key] = original

    def metrics(self) -> dict[str, float]:
        """Every :data:`LAYER_METRICS` value from the recorded spans and counts."""
        covered = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - covered[index]
        out = {}
        for name in ("cli.main", *SPANS):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = own[name]
        out["algorithms.run.failed"] = self.counts["run_failed"]
        out["algorithms.steps"] = self.counts["steps"]
        out["algorithms.confirm_steps"] = self.counts["confirm_steps"]
        out["series.couple_product.distinct"] = len(self.couple_keys)
        out["series.ellipse_factor.refused"] = self.counts["ellipse_factor_refused"]
        return {name: out[name] for name in LAYER_METRICS}
