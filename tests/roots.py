"""The tests' reference root finder for any squarefree integer polynomial.

cvtk root-finds only G_n, from the seeds of its four-term z-form.  The tests
also root-find the meridian and longitude minimal polynomials and random
polynomials, so they seed `RootApproximations` themselves: with float
Aberth-Ehrlich approximations (`aberth_seeds`), or with points on the Cauchy
circle (`circle_seeds`) where those are not finite.  The roots are certified
by cvtk's inclusion discs whatever the seeds.
"""

import cmath
from math import exp, log, pi

from cvtk.knotgrp import RootApproximations, sorted_complex


def _horner(coeffs, z):
    """(p(z), p'(z)) for coefficients listed highest degree first."""
    p = dp = 0j
    for c in coeffs:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def aberth_seeds(coeffs: list):
    """Float approximations of the roots of an integer polynomial (highest
    degree first) by the Aberth-Ehrlich iteration, to start the integer one.

    The sweeps stop once every |p(z)| is within rounding error of the Horner
    sum of |a_k| |z|^k (Bini's test): floats cannot place the roots better.
    None if a seed is not finite.
    """
    deg = len(coeffs) - 1
    scale = 1 << max(abs(c).bit_length() for c in coeffs)
    fwd = [c / scale for c in coeffs]  # int true division: never overflows
    rev = fwd[::-1]
    abs_fwd, abs_rev = [abs(c) for c in fwd], [abs(c) for c in rev]
    lo = abs(coeffs[-1]) or 1
    radius = exp((log(lo) - log(abs(coeffs[0]))) / deg)
    zs = [radius * cmath.exp(2j * pi * (k + 0.25) / deg) for k in range(deg)]
    for _ in range(100):
        converged = True
        for i, z in enumerate(zs):
            if abs(z) <= 1:
                (den, num), bound = _horner(fwd, z), _horner(abs_fwd, abs(z))[0]
            else:  # p(z) = z^deg rev(w) with w = 1/z keeps the powers bounded
                w = 1 / z
                (den, dr), bound = _horner(rev, w), _horner(abs_rev, abs(w))[0]
                num = w * (deg * den - w * dr)
            # num / den = p'(z) / p(z)
            converged = converged and abs(den) <= 4 * deg * 2.0 ** -53 * bound.real
            denom = num - den * sum(1 / (z - y) for y in zs if y != z)
            if den != 0 and denom != 0:
                zs[i] = z - den / denom
        if converged:
            break
    if all(cmath.isfinite(z) for z in zs):
        return zs
    return None


def circle_seeds(coeffs: list) -> list:
    """Points on the circle of the Cauchy bound 1 + max |a_k / a_deg|."""
    deg = len(coeffs) - 1
    radius = 1 + max(abs(c) for c in coeffs[1:]) / abs(coeffs[0])
    return [radius * cmath.exp(2j * pi * (k + 0.25) / deg) for k in range(deg)]


def generic_seeds(p) -> list:
    """`aberth_seeds` of the primitive integer form of p, or the Cauchy
    circle when those are not finite."""
    coeffs = list(reversed(p.primitive().num))
    return aberth_seeds(coeffs) or circle_seeds(coeffs)


def complex_roots(p) -> list:
    """All complex roots of the squarefree polynomial p from `generic_seeds`,
    certified by disjoint inclusion discs and sorted by (real, imaginary)."""
    return sorted_complex(RootApproximations(p, (), generic_seeds(p)).roots)
