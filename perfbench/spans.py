"""Span tracing of the pdmat layers from outside the program.

A :class:`Tracer` replaces each public function of the pdmat modules with a
wrapper that records a span (name, start, end, parent) in memory.  Names bound
by ``from .core import ...`` are separate references, so every module
attribute that holds a wrapped function is replaced, not only the defining
one.  ``numpy.linalg.eigh`` and ``scipy.linalg.expm`` are wrapped as the
``linalg`` layer.  The configs run with ``workers = 1``, so calls nest on one
thread and the span stack is a plain list.

Coefficient rules (``operators.*_coeff``) are called once per matrix entry; a
span each would cost more than the work, so they are not wrapped as layers.
They are counted instead where they enter an assembly function, and their time
stays in that function's self time.

A span's self time is its duration minus the durations of its direct
children; summed over all spans under the round span it equals the round's
duration, so the layer self times account for the traced run time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "reporting", "experiments", "flows", "periodic", "core",
          "spectral", "operators", "linalg", "bench")
MODULES = ("core", "periodic", "spectral", "operators", "flows", "experiments",
           "cli", "reporting")
ROOT = "bench.round"

# assembly functions that take a coefficient rule, and the parameter holding it
COEFF_PARAMS = {
    "operators.toeplitz_potential": "coeff_fn",
    "spectral.mult_matrix_from_coeffs": "coeff_fn",
    "spectral.mult_matrix_fourier": "coeff_fn",
    "experiments.schroedinger_assemble": "v_coeffs",
}
SPECTRAL_ASSEMBLY = ("dft_matrix", "idft_matrix", "fd_matrix", "fd_symbol",
                     "mult_matrix_from_samples", "mult_matrix_from_coeffs",
                     "mult_matrix_fourier", "spectral_multiplier")
OPERATORS_ASSEMBLY = ("fourier_multiplier", "toeplitz_potential")
REPORTING_WRITES = ("write_csv", "write_json", "write_manifest",
                    "write_loglog_dat", "sha256_file")


def public_functions(module):
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


def self_times(spans):
    """Self time of each span: its duration minus its direct children's.

    ``spans`` is a list of (name, start, end, parent) with parent an index
    into the list or -1.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def expm_flops(n: int, is_complex: bool) -> float:
    """Computed real-flop count of a Pade-13 ``expm`` without squarings:
    six products and one LU solve of n x n matrices."""
    return (6 * 2.0 + 8.0 / 3.0) * n ** 3 * (4 if is_complex else 1)


def eigh_flops(n: int, is_complex: bool) -> float:
    """Computed real-flop count of a symmetric eigendecomposition with
    eigenvectors, 9 n^3 (Golub and Van Loan), four times that if complex."""
    return 9.0 * n ** 3 * (4 if is_complex else 1)


class Tracer:
    """Wraps the pdmat layers, records spans and counts, and restores the
    original functions on :meth:`uninstall`."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.distinct: dict = defaultdict(set)
        self._patches: list = []
        self._eigh_cache = self._cache_before = None
        self._coeff_depth = [0]

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block, used for the round itself."""
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def _counted(self, fn):
        """Coefficient rule that counts its evaluations and distinct
        arguments; a rule already counted is not wrapped twice, and a nested
        evaluation counts once."""
        if getattr(fn, "__counted_rule__", False):
            return fn
        counts, seen, depth = self.counts, self.distinct["coeff"], self._coeff_depth

        def rule(*args):
            if depth[0]:
                return fn(*args)
            counts["coeff_evals"] += 1
            seen.add((fn, args))
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        rule.__counted_rule__ = True
        rule.__wrapped__ = fn
        return rule

    # -- hooks -------------------------------------------------------------

    def _coeff_hook(self, fn, param):
        sig = inspect.signature(fn)
        counted = self._counted

        def before(args, kwargs):
            bound = sig.bind_partial(*args, **kwargs)
            rule = bound.arguments.get(param)
            if callable(rule):
                bound.arguments[param] = counted(rule)
                return bound.args, bound.kwargs
            return args, kwargs
        return before

    def _hooks(self, qualname, fn):
        """(before, after) callables for the functions that carry counters."""
        counts, distinct = self.counts, self.distinct
        before = after = None
        if qualname in COEFF_PARAMS:
            before = self._coeff_hook(fn, COEFF_PARAMS[qualname])
        if qualname == "experiments.waterwave_assemble":
            def after(args, kwargs, result):
                m = result.model
                counts["assemble_calls"] += 1
                distinct["assemble"].add(("ww", m.label, m.mu, m.stvenant,
                                          result.block.size))
        elif qualname == "experiments.schroedinger_assemble":
            def after(args, kwargs, result):
                rule = args[0] if args else kwargs["v_coeffs"]
                counts["assemble_calls"] += 1
                distinct["assemble"].add(("schr", getattr(rule, "__wrapped__", rule),
                                          result.block.size))
        elif qualname == "experiments.growth_trajectory":
            sig = inspect.signature(fn)

            def after(args, kwargs, result):
                b = sig.bind(*args, **kwargs).arguments
                counts["growth_steps"] += int(round(b["horizon"] / b["delta"]))
        elif qualname == "core.estimate_order":
            def after(args, kwargs, result):
                counts["order_grid_points"] += int(result.max_ratios.size)
        elif qualname in ("reporting.write_csv", "reporting.write_json",
                          "reporting.write_loglog_dat"):
            def after(args, kwargs, result):
                counts["bytes_written"] += os.path.getsize(args[0])
        elif qualname in ("linalg.eigh", "linalg.expm"):
            kind = qualname.split(".")[1]
            flops = eigh_flops if kind == "eigh" else expm_flops

            def after(args, kwargs, result):
                a = args[0]
                counts[f"{kind}_calls"] += 1
                counts["flops"] += flops(a.shape[-1], a.dtype.kind == "c")
        return before, after

    # -- install -----------------------------------------------------------

    def install(self):
        import numpy.linalg
        import scipy.linalg
        mods = {name: importlib.import_module(f"pdmat.{name}") for name in MODULES}
        replace = {}
        for mname, mod in mods.items():
            for fname, fn in public_functions(mod).items():
                if fname.endswith("_coeff"):
                    continue
                qual = f"{mname}.{fname}"
                replace[id(fn)] = (fn, self._wrap(qual, fn, *self._hooks(qual, fn)))
        for holder in mods.values():
            for attr, val in list(vars(holder).items()):
                if id(val) in replace and replace[id(val)][0] is val:
                    self._patch(holder, attr, replace[id(val)][1])
        for holder, attr, qual in ((numpy.linalg, "eigh", "linalg.eigh"),
                                   (scipy.linalg, "expm", "linalg.expm")):
            fn = getattr(holder, attr)
            self._patch(holder, attr, self._wrap(qual, fn, *self._hooks(qual, fn)))
        self._eigh_cache = mods["flows"]._eigh_cached
        self._cache_before = self._eigh_cache.cache_info()
        return self

    def _patch(self, holder, attr, value):
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self):
        after = self._eigh_cache.cache_info()
        before = self._cache_before
        self.counts["eigh_cache_hits"] = after.hits - before.hits
        self.counts["eigh_cache_misses"] = after.misses - before.misses
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the recorded round, named as in BENCHMARK.json.

        Every ``_s`` metric is a self time.  A ratio whose base is zero (the
        layer did no such work in this workload) reads 0.
        """
        selfs = self_times(self.spans)
        by_name: dict = defaultdict(float)
        inclusive: dict = defaultdict(float)
        for (name, start, end, _), st in zip(self.spans, selfs):
            by_name[name] += st
            inclusive[name] += end - start
        layer = defaultdict(float)
        for name, st in by_name.items():
            layer[name.split(".")[0]] += st
        c = self.counts

        def fn_self(module, names):
            return sum(by_name[f"{module}.{n}"] for n in names)

        def ratio(num, den):
            return num / den if den else 0.0

        m = {f"{lay}.self_s": layer[lay] for lay in LAYERS}
        order_s = by_name["core.estimate_order"]
        growth_s = inclusive["experiments.growth_trajectory"]
        cache_calls = c["eigh_cache_hits"] + c["eigh_cache_misses"]
        m.update({
            "trace.run_s": inclusive[ROOT],
            "linalg.eigh_calls": c["eigh_calls"],
            "linalg.eigh_s": by_name["linalg.eigh"],
            "linalg.expm_calls": c["expm_calls"],
            "linalg.expm_s": by_name["linalg.expm"],
            "linalg.flop_computed": c["flops"],
            "experiments.growth_steps": c["growth_steps"],
            "experiments.growth_steps_per_s": ratio(c["growth_steps"], growth_s),
            "experiments.assemble_calls": c["assemble_calls"],
            "experiments.assemble_useful_ratio":
                ratio(len(self.distinct["assemble"]), c["assemble_calls"]),
            "flows.exact_flow_calls": sum(
                1 for s in self.spans if s[0] == "flows.exact_flow"),
            "flows.exact_flow_s": by_name["flows.exact_flow"],
            "flows.split_step_s": by_name["flows.split_step"],
            "flows.loss_scan_s": by_name["flows.loss_scan"],
            "flows.eigh_cache_calls": cache_calls,
            "flows.eigh_cache_hit_ratio": ratio(c["eigh_cache_hits"], cache_calls),
            "core.estimate_order_s": order_s,
            "core.order_grid_points": c["order_grid_points"],
            "core.estimate_order_us_per_point":
                1e6 * ratio(order_s, c["order_grid_points"]),
            "periodic.approx_error_s": by_name["periodic.approx_error"],
            "periodic.bracket_check_s": fn_self(
                "periodic", ("bracket_triangle_holds", "bracket_peetre_holds")),
            "spectral.assembly_s": fn_self("spectral", SPECTRAL_ASSEMBLY),
            "operators.assembly_s": fn_self("operators", OPERATORS_ASSEMBLY),
            "operators.coeff_evals": c["coeff_evals"],
            "operators.coeff_useful_ratio":
                ratio(len(self.distinct["coeff"]), c["coeff_evals"]),
            "reporting.write_s": fn_self("reporting", REPORTING_WRITES),
            "reporting.bytes_written": c["bytes_written"],
            "trace.spans": len(self.spans),
        })
        return m
