"""Span tracer for the traced run.

`Tracer.install()` wraps the engine's public functions and methods named in
LAYERS: each module-level function is rebound in every `tltau` module that
imported it (so `chain.det` and `schur.det` are both traced), and methods
are replaced on their classes.  A wrapped call appends a span
[name, start, end, parent] to an in-memory list; some also add to counters
(matrix orders, term pairs, Newton iterations).  `QuadraticNumber`
multiplication and inversion are only counted: a span per scalar operation
would cost more than the work it measures.

Self time of a span is its length minus the lengths of its direct children,
which nest inside it.
"""

import sys
import time
from collections import defaultdict


def _add_n3(counters, args, out):
    counters["algebra.det.n3"] += len(args[0]) ** 3


def _pairs(metric, attr):
    def extra(counters, args, out):
        a, b = args
        if type(b) is type(a):
            counters[metric] += len(getattr(a, attr)) * len(getattr(b, attr))
    return extra


def _newton(counters, args, out):
    counters["bethe.solve_bethe.iterations"] += out.iterations
    counters["bethe.solve_bethe.converged"] += 1 if out.converged else 0


def _grid(counters, args, out):
    counters["bethe.solve_bethe_grid.solutions"] += len(out)


# (module, [(function, extra counter or None), ...]); span name is
# "<module>.<function>", and the module is the span's layer.
LAYERS = (
    ("algebra", [("det", _add_n3), ("miwa_series_invert", None), ("det_ring", None),
                 ("solve_linear", None)]),
    ("chain", [("lambda_du", None), ("f2_eval", None), ("kernel", None),
               ("g_prefactor", None), ("validate_uv", None), ("f_series", None),
               ("lambda_du_y", None), ("kernel_y", None)]),
    ("schur", [("fhat_table", None), ("cauchy_binet_coeffs", None), ("schur_miwa", None),
               ("tau_schur_poly", None), ("schur_points", None), ("poly_to_schur", None),
               ("complete_homogeneous", None)]),
    ("tau", [("tau_det", None), ("tau_residue", None), ("pluecker_residual", None),
             ("andreev_residual", None), ("hirota_apply", None)]),
    ("bethe", [("solve_bethe", _newton), ("residue_vector", None),
               ("solve_bethe_grid", _grid)]),
    ("diagrams", [("enumerate_admissible", None), ("count_nested", None),
                  ("count_closed", None)]),
    ("cli", [("run_suite", None), ("draw_instance", None)]),
)

# (span name, class name in algebra, methods, extra counter or None)
METHODS = (
    ("algebra.miwa_mul", "MiwaPolynomial", ("__mul__", "__rmul__"),
     _pairs("algebra.miwa_mul.term_pairs", "terms")),
    ("algebra.laurent_mul", "LaurentSeries", ("__mul__", "__rmul__"),
     _pairs("algebra.laurent_mul.coeff_pairs", "coeffs")),
    ("algebra.laurent_invert", "LaurentSeries", ("invert",), None),
)

# Counted only: (counter name, class name in algebra, methods)
COUNTED = (
    ("algebra.qnum_mul", "QuadraticNumber", ("__mul__", "__rmul__")),
    ("algebra.qnum_inverse", "QuadraticNumber", ("inverse",)),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []
        self._undo = []

    def _span(self, name, fn, extra):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                extra(counters, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _counted(self, name, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        import tltau.algebra as algebra

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tltau" or n.startswith("tltau."))]
        for layer, funcs in LAYERS:
            home = sys.modules["tltau." + layer]
            for fname, extra in funcs:
                original = getattr(home, fname)
                wrapper = self._span("%s.%s" % (layer, fname), original, extra)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        self._set(mod, fname, wrapper)
        for name, cls_name, methods, extra in METHODS:
            cls = getattr(algebra, cls_name)
            for meth in methods:
                self._set(cls, meth, self._span(name, cls.__dict__[meth], extra))
        for name, cls_name, methods in COUNTED:
            cls = getattr(algebra, cls_name)
            for meth in methods:
                self._set(cls, meth, self._counted(name + ".calls", cls.__dict__[meth]))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take_counters(self):
        out = dict(self.counters)
        self.counters.clear()
        return out


def aggregate(spans, unit_ranges):
    """Calls and normalised self seconds per span name.

    unit_ranges is [(first span index, end index, factor)], one per unit of
    a pass; factor converts that unit's seconds to nominal seconds.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for lo, hi, factor in unit_ranges:
        for i in range(lo, hi):
            name, t0, t1, _ = spans[i]
            calls[name] += 1
            self_s[name] += (t1 - t0 - child[i]) * factor
    return dict(calls), dict(self_s)
