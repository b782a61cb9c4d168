"""Span recording around cvtk's public functions, installed from outside.

Nothing under src/ knows about this module.  `install()` replaces every
public cvtk function, at every module-level binding of it (the module that
defines it and each module that imports it), with one wrapper that records a
span: name, start and end from perf_counter_ns, and the index of the span
that was open when it started.  The verify.CHECKS table holds its functions
directly, so its entries are wrapped as `verify.check.<name>`.

Spans stay in memory in a `Tracer`; the child process sends them to the
benchmark when its operation ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = (
    "ratpoly", "factor", "cheb", "numfield", "variety", "trace",
    "intersect", "knotgrp", "verify", "golden", "cli",
)

# The CLI entry points are the operation itself, timed as a whole by the
# child; the check functions are reached through verify.CHECKS.
SKIP = {"cli.main", "cli.build_parser"}
SKIP_PREFIXES = ("cli.cmd_", "verify.check_")


def coeff_bits(poly) -> int:
    """Largest bit length of a numerator or denominator among the coefficients."""
    return max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length())
         for c in poly.coeffs),
        default=0,
    )


def _sizes_factor(args, result):
    p = args[0]
    return {"factor.input_degree": p.degree, "factor.input_coeff_bits": coeff_bits(p)}


def _sizes_minpoly(args, result):
    return {
        "numfield.field_degree": args[0].field.degree,
        "numfield.minpoly_coeff_bits": coeff_bits(result),
    }


def _sizes_roots(args, result):
    return {"knotgrp.complex_roots.degree": args[0].degree}


# Size counters read from a wrapped call's arguments and result.
SIZERS = {
    "factor.factor_over_rationals": _sizes_factor,
    "numfield.nf_minimal_polynomial": _sizes_minpoly,
    "knotgrp.complex_roots": _sizes_roots,
}


class Tracer:
    """Spans of one operation: (name, start_ns, end_ns, parent index)."""

    def __init__(self):
        self.spans = []
        self.sizes = []  # (name, value) pairs, one per sized call
        self._stack = []

    def wrap(self, name, fn):
        sizer = SIZERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if sizer is not None:
                self.sizes.extend(sizer(args, result).items())
            return result

        return traced

    def install(self) -> None:
        """Wrap every public cvtk function and every verify.CHECKS entry."""
        modules = {m: sys.modules[f"cvtk.{m}"] for m in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                name = f"{short}.{attr}"
                if name in SKIP or name.startswith(SKIP_PREFIXES):
                    continue
                wrappers[fn] = self.wrap(name, fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
        verify = modules["verify"]
        verify.CHECKS = tuple(
            (check, self.wrap(f"verify.check.{check}", fn)) for check, fn in verify.CHECKS
        )
