"""Spans around every public function of oddtrace, for the traced run.

`Tracer.install` replaces each public function of each oddtrace module
(names without a leading underscore, generator functions excepted: their
work happens while the caller iterates) wherever the package binds it: in
its own module, where another module imported it (`characters.eta`,
`cli.euler_product`, ...), and the public methods and arithmetic operators
of `FracPowerSeries`.  `Tracer.uninstall` puts the originals back, so
untraced passes run the program unchanged.

Each call records a span (id, name, start, end, cover start, cover end,
parent id, task id).  The cover interval adds the tracer's own
bookkeeping around the call, so a parent's self time -- its duration minus
what its children cover -- leaves the instrumentation out.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from collections import Counter
from time import perf_counter

# Span names grouped into the per-layer metrics they feed.
GROUPS = {
    "qseries.euler_product": ("qseries.euler_product",),
    "qseries.mul": ("qseries.mul",),
    "qseries.pow": ("qseries.pow",),
    "qseries.invert": ("qseries.invert",),
    "qseries.compare": ("qseries.first_mismatch", "qseries.eq_to_order", "qseries.eq"),
    "qseries.json": ("qseries.to_json_dict", "qseries.from_json_dict"),
    "characters.resolve_signs": ("characters.resolve_signs",),
    "characters.verify": ("characters.verify_jacobi", "characters.verify_fermion_eta",
                          "characters.verify_bgg_equals_eta_cubed",
                          "characters.compare_series"),
    "pbw.enumerate": ("pbw.enumerate_fermion_monomials", "pbw.enumerate_ns_monomials"),
    "pbw.fermion_odd_trace": ("pbw.fermion_odd_trace",),
    "queer.queer_mul": ("queer.queer_mul",),
    "modcheck.eval_series": ("modcheck.eval_series",),
    "cli.parse": ("cli.main", "cli.build_parser"),
    "cli.render": ("cli.render_report",),
}
LAYERS = ("qseries", "characters", "pbw", "queer", "superalgebras", "modcheck", "cli")
# Calls whose repeats within one task are counted as recomputation.
REDUNDANT = ("qseries.euler_product", "pbw.fermion_odd_trace")
# FracPowerSeries operators, named as in the metrics.
OPERATORS = {"__add__": "add", "__sub__": "sub", "__neg__": "neg", "__mul__": "mul",
             "__rmul__": "mul", "__pow__": "pow", "__eq__": "eq"}


def package_modules(package):
    return [package] + [importlib.import_module(f"{package.__name__}.{m.name}")
                        for m in pkgutil.iter_modules(package.__path__)]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.series_type = package.FracPowerSeries
        self.spans = []
        self.counts = Counter()
        self.task = None
        self._stack = []
        self._seen = set()
        self._next = 0
        self._off = False
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self):
        modules = package_modules(self.package)
        wrappers = {}
        for module in modules[1:]:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_") and not inspect.isgeneratorfunction(fn)):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for module in modules:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, name, wrappers[value])
        cls = self.series_type
        for name, value in list(vars(cls).items()):
            label = OPERATORS.get(name, None if name.startswith("_") else name)
            fn = value.__func__ if isinstance(value, staticmethod) else value
            if label is None or not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            wrapper = wrappers.get(fn) or self._wrap(f"qseries.{label}", fn)
            wrappers[fn] = wrapper
            self._patch(cls, name, staticmethod(wrapper) if fn is not value else wrapper)

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        record = self._bookkeeping(name)

        def wrapper(*args, **kwargs):
            if tracer._off:
                return fn(*args, **kwargs)
            c0 = perf_counter()
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = tracer._next
            tracer._next += 1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            if record is not None:
                tracer._off = True
                try:
                    record(args, result)
                finally:
                    tracer._off = False
            tracer.spans.append((sid, name, t0, t1, c0, perf_counter(), parent, tracer.task))
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _bookkeeping(self, name):
        """The counts taken at this span's boundary, or None."""
        counts = self.counts
        series = self.series_type

        def size(x):
            return len(x.support()) if isinstance(x, series) else 1

        def bits(result):
            if isinstance(result, series):
                top = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                           for _, c in result.terms()), default=0)
                counts["qseries.max_coeff_bits"] = max(counts["qseries.max_coeff_bits"], top)

        def repeat(args):
            key = (self.task, name, args)
            counts[f"{name}.repeats"] += key in self._seen
            self._seen.add(key)

        hooks = []
        if name.startswith("qseries."):
            hooks.append(lambda args, result: bits(result))
        if name in REDUNDANT:
            hooks.append(lambda args, result: repeat(args))
        if name == "qseries.mul":
            hooks.append(lambda args, result: counts.update(
                {"qseries.mul.term_pairs": size(args[0]) * size(args[1])}))
        if name.startswith("pbw.enumerate_"):
            hooks.append(lambda args, result: counts.update({"pbw.monomials": len(result)}))
        if name == "modcheck.eval_series":
            hooks.append(lambda args, result: counts.update(
                {"modcheck.terms_evaluated": size(args[0])}))
        if name == "cli.render_report":
            hooks.append(lambda args, result: counts.update(
                {"cli.report_bytes": len(result.encode())}))
        if not hooks:
            return None

        def record(args, result):
            for hook in hooks:
                hook(args, result)
        return record

    def root(self, task_id, name):
        """Open the span of one task; returns a function that closes it."""
        self.task = task_id
        sid = self._next
        self._next += 1
        self._stack.append(sid)
        t0 = perf_counter()

        def close():
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append((sid, f"task.{name}", t0, t1, t0, t1, None, task_id))
            self.task = None
        return close

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self):
        """Per-group call counts and self times, and per-layer self times."""
        spans = self.spans
        covered = Counter()
        for _sid, _name, _t0, _t1, c0, c1, parent, _task in spans:
            if parent is not None:
                covered[parent] += c1 - c0
        self_time = Counter()
        calls = Counter()
        for sid, name, t0, t1, _c0, _c1, _parent, _task in spans:
            self_time[name] += (t1 - t0) - covered[sid]
            calls[name] += 1
        out = {}
        for group, names in GROUPS.items():
            out[f"{group}.calls"] = sum(calls[n] for n in names)
            out[f"{group}.self_s"] = sum(self_time[n] for n in names)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for n, v in self_time.items()
                                         if n.startswith(layer + "."))
        out["task.self_s"] = sum(v for n, v in self_time.items() if n.startswith("task."))
        return out
