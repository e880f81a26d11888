"""Outside-in tracing of the package's public functions, and the per-layer metrics.

The child process calls :meth:`Tracer.install` after importing the CLI.
Each function in :data:`WRAPPED` is replaced by a wrapper in every
``hankelpert`` namespace that bound the original (``cli``, ``hankel``,
``linstat`` and ``quadrature`` import these functions by name), so calls
between modules are seen too. A span is (name, start, end, parent, error,
digits, size); spans stay in memory until the invocation ends.
``PerturbationFn.__call__`` is hot and only counted.

This module does not import the package at load time, so the benchmark's
parent process can use the aggregation code without importing the program.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function, argument index and name of the recorded size or None)
WRAPPED = (
    ("specfun", "log_gamma", None),
    ("specfun", "log_barnes_g", None),
    ("jacobi", "jacobi_moment", None),
    ("jacobi", "jacobi_logdet_exact", None),
    ("jacobi", "jacobi_log_hn", None),
    ("jacobi", "jacobi_logdet_asym", None),
    ("quadrature", "gauss_jacobi_rule", (0, "m")),
    ("quadrature", "cheb_expand", (1, "M")),
    ("quadrature", "cheb_expand_auto", None),
    ("hankel", "pure_moment_sequence", None),
    ("hankel", "perturbed_moment_sequence", None),
    ("hankel", "hankel_logdet_ldl", (1, "n")),
    ("hankel", "hankel_logdet_recurrence", None),
    ("hankel", "modified_chebyshev", None),
    ("linstat", "cheb_log_expand", None),
    ("linstat", "assemble_prediction", None),
    ("dsl", "parse_h", None),
    ("dsl", "validate_positive", None),
    ("cli", "main", None),
)
NAMES = tuple(f"{mod}.{fn}" for mod, fn, _ in WRAPPED)
ROOT = "cli.main"
# functions that take no Precision argument, so have no digits_max
NO_PRECISION = ("hankel.modified_chebyshev", "dsl.parse_h", "cli.main")
H_CALLS = "dsl.PerturbationFn.__call__.calls"

# Functions each workload must reach: a traced run in which one of them
# records no span fails, so a rename cannot silently zero a layer.
_COMPARE = (ROOT, "dsl.parse_h", "dsl.validate_positive", "quadrature.gauss_jacobi_rule",
            "quadrature.cheb_expand", "quadrature.cheb_expand_auto",
            "hankel.perturbed_moment_sequence", "hankel.hankel_logdet_ldl",
            "hankel.hankel_logdet_recurrence", "hankel.modified_chebyshev",
            "linstat.cheb_log_expand", "linstat.assemble_prediction",
            "jacobi.jacobi_logdet_exact", "specfun.log_barnes_g")
EXPECTED = {
    "bare-exact": (ROOT, "jacobi.jacobi_moment", "specfun.log_gamma",
                   "specfun.log_barnes_g", "jacobi.jacobi_logdet_exact",
                   "jacobi.jacobi_log_hn", "jacobi.jacobi_logdet_asym",
                   "hankel.pure_moment_sequence", "hankel.hankel_logdet_ldl"),
    "compare-sweep": _COMPARE,
    "pole-compare": _COMPARE,
}

# Stage scaling probe: <name>.exponent = log2(t(2n) / t(n)) at fixed digits.
PROBED = ("hankel.pure_moment_sequence", "hankel.hankel_logdet_ldl",
          "quadrature.gauss_jacobi_rule", "hankel.modified_chebyshev",
          "quadrature.cheb_expand")


def per_layer_metrics() -> list:
    """Every per-layer metric a traced run prints: (name, unit, better)."""
    out = []
    for name in NAMES:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"),
                (f"{name}.share", "ratio", "lower")]
        if name not in NO_PRECISION:
            out.append((f"{name}.digits_max", "digits", "lower"))
        out.append((f"{name}.errors", "count", "lower"))
    out += [(H_CALLS, "count", "lower"),
            ("hankel.hankel_logdet_ldl.n_max", "count", "lower"),
            ("quadrature.gauss_jacobi_rule.nodes", "count", "lower"),
            ("quadrature.cheb_expand.degree_max", "degree", "lower"),
            ("quadrature.cheb_expand.useful_ratio", "ratio", "higher")]
    out += [(f"{name}.exponent", "exponent", "lower") for name in PROBED]
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


class Tracer:
    """Span recorder for one invocation; install() patches the imported package."""

    def __init__(self):
        self.spans = []
        self.h_calls = 0
        self._stack = []

    def install(self) -> None:
        from hankelpert.dsl import PerturbationFn
        from hankelpert.precision import Precision

        for index, (mod, fn, size_arg) in enumerate(WRAPPED):
            original = getattr(importlib.import_module(f"hankelpert.{mod}"), fn)
            wrapper = self._wrap(index, original, size_arg, Precision)
            bound = 0
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("hankelpert"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"{mod}.{fn} is bound in no hankelpert namespace")

        original_call = PerturbationFn.__call__

        def counted(h, x):
            self.h_calls += 1
            return original_call(h, x)

        PerturbationFn.__call__ = counted

    def _wrap(self, index, original, size_arg, precision_type):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            digits = -1
            for value in args:
                if type(value) is precision_type:
                    digits = value.decimal_digits
            for value in kwargs.values():
                if type(value) is precision_type:
                    digits = value.decimal_digits
            size = -1
            if size_arg is not None:
                pos, key = size_arg
                size = args[pos] if len(args) > pos else kwargs.get(key, -1)
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            error = 0
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            except BaseException:
                error = 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[slot] = (index, start, end, parent, error, digits, size)

        return wrapper


def aggregate(invocations: list) -> dict:
    """Per-layer metrics from the traced invocations.

    Each item has ``spans`` (as recorded by Tracer), ``h_calls`` and ``rows``
    (the number of rows in its report). Self time is a span's duration minus
    the durations of its direct children; share divides it by the total
    ``cli.main`` time.
    """
    calls = [0] * len(NAMES)
    self_s = [0.0] * len(NAMES)
    digits = [0] * len(NAMES)
    errors = [0] * len(NAMES)
    sizes = {f"{mod}.{fn}": [] for mod, fn, arg in WRAPPED if arg}
    h_calls = rows = 0
    for inv in invocations:
        h_calls += inv["h_calls"]
        rows += inv["rows"]
        spans = inv["spans"]
        child_time = [0.0] * len(spans)
        for index, start, end, parent, _, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for slot, (index, start, end, parent, error, dig, size) in enumerate(spans):
            calls[index] += 1
            self_s[index] += end - start - child_time[slot]
            digits[index] = max(digits[index], dig)
            errors[index] += error
            if size >= 0:
                sizes[NAMES[index]].append(size)
    root_time = sum(end - start for inv in invocations
                    for index, start, end, parent, *_ in inv["spans"] if parent < 0)
    out = {}
    for i, name in enumerate(NAMES):
        out[f"{name}.calls"] = calls[i]
        out[f"{name}.self_s"] = self_s[i]
        out[f"{name}.share"] = self_s[i] / root_time if root_time else 0.0
        if name not in NO_PRECISION:
            out[f"{name}.digits_max"] = digits[i]
        out[f"{name}.errors"] = errors[i]
    cheb_calls = calls[NAMES.index("quadrature.cheb_expand")]
    out[H_CALLS] = h_calls
    out["hankel.hankel_logdet_ldl.n_max"] = max(sizes["hankel.hankel_logdet_ldl"], default=0)
    out["quadrature.gauss_jacobi_rule.nodes"] = sum(sizes["quadrature.gauss_jacobi_rule"])
    out["quadrature.cheb_expand.degree_max"] = max(sizes["quadrature.cheb_expand"], default=0)
    out["quadrature.cheb_expand.useful_ratio"] = rows / cheb_calls if cheb_calls else 0.0
    out["_root_s"] = root_time
    return out


def probe() -> dict:
    """Time direct stage calls at n and 2n with the requested digits held at 64.

    Returns {name: {"exponent", "sizes", "digits", "seconds"}}; each time is
    the faster of two calls, and the n and 2n calls alternate.
    """
    import math
    from fractions import Fraction

    import mpmath
    from mpmath import mpf

    from hankelpert import hankel, quadrature
    from hankelpert.jacobi import JacobiParams
    from hankelpert.precision import Precision

    p = Precision(64)
    jp = JacobiParams(Fraction(1, 2), Fraction(0))

    def raw(count):
        # moments of (1 + x) on [-1, 1]: all nonzero rationals, rounded at 200 digits
        with mpmath.workdps(200):
            return tuple(mpf(2) / (k + 1 + k % 2) for k in range(count))

    def chebyshev(count):
        # the classical Chebyshev algorithm: raw moments, zero auxiliary coefficients
        with mpmath.workdps(200):
            zeros = [mpf(0)] * (2 * count)
            return hankel.modified_chebyshev(raw(2 * count), zeros, zeros, count)

    stages = {
        "hankel.pure_moment_sequence": (16, lambda n: hankel.pure_moment_sequence(jp, n, p)),
        "hankel.hankel_logdet_ldl": (
            40, lambda n: hankel.hankel_logdet_ldl(
                hankel.MomentSequence(raw(2 * n - 1), "probe"), n, p)),
        "quadrature.gauss_jacobi_rule": (40, lambda m: quadrature.gauss_jacobi_rule(m, jp, p)),
        "hankel.modified_chebyshev": (64, chebyshev),
        "quadrature.cheb_expand": (128, lambda M: quadrature.cheb_expand(mpmath.exp, M, p)),
    }
    out = {}
    for name, (n, call) in stages.items():
        best = {n: float("inf"), 2 * n: float("inf")}
        for size in (n, 2 * n, 2 * n, n):
            start = time.perf_counter()
            call(size)
            best[size] = min(best[size], time.perf_counter() - start)
        out[name] = {"exponent": math.log2(best[2 * n] / best[n]),
                     "sizes": [n, 2 * n], "digits": p.decimal_digits,
                     "seconds": [best[n], best[2 * n]]}
    return out
