"""Peripheral trace calculus for the knot family.

For a character with r = tr(ab^-1) and x = tr(a) = tr(b), the word
w = (ab^-1)^n (a^-1 b)^n has trace t = (2 - r)(x^2 - 2 - r) f_n(r)^2 + 2;
this is an exact identity on the whole tr(a) = tr(b) slice of the free
group character variety, and on the intersection characters it collapses
to t = r.  The peripheral system is generated by the meridian a and the
preferred longitude s1 s2^-1 s1^-1 s2 built from the Seifert generators
s1 = w^n and s2 = (ab^-1)^n.

The calculus here computes delta_{d,e} = tr(w^d (ab^-1)^-e) by a pair of
three-term recursions, the trace gamma = tr(s1 s2^-1) = delta_{n,n} in
closed form, and the longitude trace through the commutator trace identity

    tr(P Q^-1 P^-1 Q) = p^2 + q^2 + c^2 - p q c - 2

with p = tr(P), q = tr(Q), c = tr(P Q^-1).  Every f_j value in these
formulas comes from one `cheb.f_values` table per evaluation point, built
by the recurrence f_{j+1} = u f_j - f_{j-1} (at r, and at t only where
t != r), never from a separate evaluation of each f_j.  All of it works over
any commutative ring handle: exact rationals, number-field elements, or
complex floats.  A character whose meridian trace is not an algebraic
integer while its longitude trace is one detects an essential surface of
slope 0, and for these knots any connected essential surface of slope 0 is
a genus 1 Seifert surface.  The intersection report (`cvtk.intersect`)
proves both halves when it builds the locus, so its verdict, a
`SlopeVerdict`, is a constant.
"""

from __future__ import annotations

from fractions import Fraction

from . import Record
from .cheb import f_values, require_family_index
from .numfield import IntegralityVerdict, integrality_verdict, nf_minimal_polynomial
from .ratpoly import UniPoly, frac_str


class VerificationError(RuntimeError):
    """A hard mathematical invariant failed to hold."""


def _tr_power_from(table: list, k: int):
    """tr(M^k) = f_{k+1} - f_{k-1} read off an f_values table through k + 1."""
    return table[k + 2] - table[k]


def tr_commutator(t1, t2, t12):
    """tr(P Q^-1 P^-1 Q) from t1 = tr(P), t2 = tr(Q), t12 = tr(P Q^-1)."""
    return t1 * t1 + t2 * t2 + t12 * t12 - t1 * t2 * t12 - 2


class TraceContext:
    """Trace bookkeeping at one character of the n-th knot group.

    r and x_squared live in a shared commutative ring (Fraction, NFElem of
    one field, or complex); t = tr(w) is derived from them.  Every
    f_j value is read from one `cheb.f_values` table per point: r_table, at
    r through f_{n+1}, built once, and t_table, which is r_table itself when
    t == r (as at every intersection character) and a second table
    otherwise.  A read past a table's end extends it in place.  The tables
    and the delta memo are private to the context.
    """

    def __init__(self, n: int, r, x_squared):
        require_family_index(n)
        self.n = n
        self.r = r
        self.x_squared = x_squared
        self.r_table = f_values(r, n + 1)
        fr = self.r_table[n + 1]
        self.t = t = (2 - r) * (x_squared - 2 - r) * fr * fr + 2
        self.t_table = self.r_table if t == r else f_values(t, n + 1)
        self.delta_11 = (2 - r) * self.r_table[n] * fr * (x_squared - 2 - r) + r
        self._memo = {}

    def f_r(self, j: int):
        """f_j(r), for j >= -1."""
        return f_values(self.r, j, self.r_table)[j + 1]

    def f_t(self, j: int):
        """f_j(t), for j >= -1."""
        return f_values(self.t, j, self.t_table)[j + 1]


def delta(d: int, e: int, ctx: TraceContext):
    """tr(w^d (ab^-1)^-e) by the two-direction recursion.

    Seeds, read off the context's tables: delta_{d,0} = f_{d+1}(t) -
    f_{d-1}(t), delta_{0,e} = f_{e+1}(r) - f_{e-1}(r) (both 2 at d = e = 0),
    and the closed delta_{1,1}; then delta_{d,e} = r delta_{d,e-1} -
    delta_{d,e-2} in e, and delta_{d,1} = t delta_{d-1,1} - delta_{d-2,1} in d.
    """
    if not (isinstance(d, int) and isinstance(e, int)) or d < 0 or e < 0:
        raise ValueError(f"delta indices must be nonnegative integers, got ({d}, {e})")
    memo = ctx._memo
    key = (d, e)
    if key in memo:
        return memo[key]
    if d == 0:
        val = ctx.f_r(e + 1) - ctx.f_r(e - 1)
    elif e == 0:
        val = ctx.f_t(d + 1) - ctx.f_t(d - 1)
    elif (d, e) == (1, 1):
        val = ctx.delta_11
    elif e >= 2:
        val = ctx.r * delta(d, e - 1, ctx) - delta(d, e - 2, ctx)
    else:
        val = ctx.t * delta(d - 1, 1, ctx) - delta(d - 2, 1, ctx)
    memo[key] = val
    return val


def gamma_closed(d: int, e: int, ctx: TraceContext):
    """Closed form of delta_{d,e}:

    f_e(r) (f_d(t) delta_{1,1} - r f_{d-1}(t))
        - f_{e-1}(r) (f_{d+1}(t) - f_{d-1}(t)),

    with the f_{-1} = -1 extension; agrees with delta(d, e) identically.
    """
    if not (isinstance(d, int) and isinstance(e, int)) or d < 0 or e < 0:
        raise ValueError(f"gamma indices must be nonnegative integers, got ({d}, {e})")
    f_r, f_t = ctx.f_r, ctx.f_t
    return f_r(e) * (f_t(d) * ctx.delta_11 - ctx.r * f_t(d - 1)) - f_r(e - 1) * (
        f_t(d + 1) - f_t(d - 1)
    )


def seifert_traces(ctx: TraceContext):
    """(tr s1, tr s2, gamma = tr(s1 s2^-1)) at the context's character: the
    n-th powers of w and ab^-1 read off the t and r tables, and gamma =
    gamma_closed(n, n)."""
    n = ctx.n
    return (_tr_power_from(ctx.t_table, n), _tr_power_from(ctx.r_table, n),
            gamma_closed(n, n, ctx))


def longitude_value(ctx: TraceContext):
    """The longitude trace tr(s1 s2^-1 s1^-1 s2) at the context's character."""
    return tr_commutator(*seifert_traces(ctx))


def longitude_trace(locus):
    """Longitude trace at an intersection character, with its verdict.

    `locus` needs attributes n, r_elem, x_squared (elements of one number
    field).  Returns (trace, minimal polynomial by power sums, verdict from
    `longitude_integrality`).  The report reads its polynomial off the
    meridian's; this stays because perfbench/child.py calls it.
    """
    tau = longitude_value(TraceContext(locus.n, locus.r_elem, locus.x_squared))
    min_poly = nf_minimal_polynomial(tau, "l")
    return tau, min_poly, longitude_integrality(locus.n, min_poly)


def longitude_integrality(n: int, min_poly: UniPoly) -> IntegralityVerdict:
    """Integrality verdict of a longitude trace from its minimal polynomial.

    The verdict must certify an algebraic integer, otherwise the slope-0
    detection logic would be unsound and a VerificationError is raised.
    """
    verdict = integrality_verdict(min_poly)
    if not verdict.is_algebraic_integer:
        raise VerificationError(
            f"longitude trace at n = {n} is not an algebraic integer: "
            f"minimal polynomial {min_poly}"
        )
    return verdict


class ReducibleCharacter(Record):
    """The character of the reducible representations, at r = t = 2."""

    n: int
    r: Fraction
    t: Fraction
    x_squared: Fraction
    x_min_poly: UniPoly
    meridian_verdict: IntegralityVerdict
    s1_trace: Fraction
    s2_trace: Fraction
    s1s2inv_trace: Fraction
    longitude_trace: Fraction

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": frac_str(self.r),
            "t": frac_str(self.t),
            "x_squared": frac_str(self.x_squared),
            "x_min_poly": self.x_min_poly.to_json(),
            "meridian_verdict": self.meridian_verdict.to_json(),
            "s1_trace": frac_str(self.s1_trace),
            "s2_trace": frac_str(self.s2_trace),
            "s1s2inv_trace": frac_str(self.s1s2inv_trace),
            "longitude_trace": frac_str(self.longitude_trace),
        }


def reducible_character(n: int) -> ReducibleCharacter:
    """The reducible intersection of the meridian-trace condition with X.

    r = t = 2 forces x^2 = (4n^2 - 1)/n^2; the character agrees with a
    diagonal (abelian) character, so s1, s2, s1 s2^-1 and the longitude all
    have trace 2.  The meridian trace is never an algebraic integer for
    n >= 2 (bad primes = the primes dividing n).
    """
    require_family_index(n)
    two = Fraction(2)
    x2 = Fraction(4 * n * n - 1, n * n)
    x_min_poly = UniPoly([-x2, 0, 1], "x")
    verdict = integrality_verdict(x_min_poly)
    ctx = TraceContext(n, two, x2)
    if ctx.t != 2:
        raise VerificationError("t != 2 at the reducible character")
    s1, s2, gam = seifert_traces(ctx)
    if not (s1 == 2 and s2 == 2 and gam == 2):
        raise VerificationError(
            f"Seifert generator traces at the reducible character of n = {n} "
            f"are ({s1}, {s2}, {gam}), expected (2, 2, 2)"
        )
    return ReducibleCharacter(
        n=n,
        r=two,
        t=two,
        x_squared=x2,
        x_min_poly=x_min_poly,
        meridian_verdict=verdict,
        s1_trace=s1,
        s2_trace=s2,
        s1s2inv_trace=gam,
        longitude_trace=tr_commutator(s1, s2, gam),
    )


def alexander_poly(n: int):
    """Alexander polynomial n^2 t^2 + (1 - 2n^2) t + n^2 and its discriminant."""
    require_family_index(n)
    poly = UniPoly([n * n, 1 - 2 * n * n, n * n], "t")
    return poly, 1 - 4 * n * n


class SlopeCandidate(Record):
    """One branched-surface continued-fraction expansion and its slope."""

    tag: str
    expansion: tuple
    slope: int

    def to_json(self) -> dict:
        return {"tag": self.tag, "expansion": list(self.expansion), "slope": self.slope}


def boundary_slope_candidates(n: int):
    """The four minimal-edge-path expansions carrying essential surfaces.

    Slopes are read off the expansions; the all-even expansion [2n, 2n]
    carries the slope-0 (Seifert) surface.
    """
    require_family_index(n)
    return (
        SlopeCandidate(
            "[-2,...,-2,-3,-2,...,-2]",
            (-2,) * (2 * n - 2) + (-3,) + (-2,) * (2 * n - 2),
            2 - 8 * n,
        ),
        SlopeCandidate(
            "[-2,...,-2,2n-1]", (-2,) * (2 * n - 1) + (2 * n - 1,), -4 * n
        ),
        SlopeCandidate(
            "[2n-1,-2,...,-2]", (2 * n - 1,) + (-2,) * (2 * n - 1), -4 * n
        ),
        SlopeCandidate("[2n,2n]", (2 * n, 2 * n), 0),
    )


class SlopeVerdict(Record):
    """Outcome of the non-integrality detection at the intersection points:
    a built report always has a non-integral meridian trace, an integral
    longitude trace and detected slope 0."""

    meridian_integral: bool
    longitude_integral: bool
    detected_slope: int
    surface_description: str

    def to_json(self) -> dict:
        return {
            "meridian_integral": self.meridian_integral,
            "longitude_integral": self.longitude_integral,
            "detected_slope": self.detected_slope,
            "surface_description": self.surface_description,
        }

