"""Affine intersection characters of the two variety components.

The r-coordinates of the affine intersection points of the two components
are exactly the roots of G_n, a squarefree polynomial of degree 2n - 2, and
at each of them the t-coordinate of the second model equals r.  Working in
the number field Q[r]/(m) for each irreducible factor m of G_n, the meridian
trace satisfies x^2 = 2 + r - 1/f_n(r)^2, which is never an algebraic
integer (2 always divides a denominator), while the longitude trace always
is one.  That contrast is what detects the slope-0 surface.

This module builds the loci, the meridian minimal polynomials and verdicts,
attaches the longitude data from the trace module, and assembles the full
report consumed by the CLI and the slope detector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cheb import G_poly, f_poly, require_family_index
from .factor import factor_over_rationals
from .numfield import (
    IntegralityVerdict,
    NFElem,
    NumberField,
    integrality_verdict,
    nf_minimal_polynomial,
)
from .ratpoly import UniPoly
from .trace import (
    ReducibleCharacter,
    SlopeVerdict,
    VerificationError,
    detect_surface,
    longitude_trace,
    reducible_character,
)
from .variety import x_relation


@dataclass
class IntersectionLocus:
    """One irreducible factor of G_n and the character data over it.

    Built in stages: intersection_loci yields the field and r only; the
    meridian and longitude fields are filled by build_intersection_report.
    """

    n: int
    field: NumberField
    r_elem: NFElem
    x_squared: NFElem = None
    x_min_polys: tuple = None
    meridian_verdict: IntegralityVerdict = None
    factor_verdicts: tuple = None
    longitude_elem: NFElem = None
    longitude_min_poly: UniPoly = None
    longitude_verdict: IntegralityVerdict = None

    @property
    def modulus(self) -> UniPoly:
        return self.field.modulus

    @property
    def x_min_poly(self) -> UniPoly:
        """Monic minimal polynomial of the meridian trace (factor product)."""
        out = UniPoly.const(1, "x")
        for p in self.x_min_polys:
            out = out * p
        return out

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "modulus": self.modulus.to_json(),
            "degree": self.modulus.degree,
        }
        if self.x_squared is not None:
            out["x_squared"] = self.x_squared.to_json()
        if self.x_min_polys is not None:
            out["x_min_polys"] = [p.to_json() for p in self.x_min_polys]
            out["meridian_verdict"] = self.meridian_verdict.to_json()
            out["factor_verdicts"] = [v.to_json() for v in self.factor_verdicts]
        if self.longitude_min_poly is not None:
            out["longitude"] = {
                "element": self.longitude_elem.to_json(),
                "min_poly": self.longitude_min_poly.to_json(),
                "verdict": self.longitude_verdict.to_json(),
            }
        return out


def intersection_loci(n: int):
    """One locus per irreducible factor of G_n; no meridian data yet."""
    require_family_index(n)
    G = UniPoly(G_poly(n).coeffs, "r")
    fac = factor_over_rationals(G)
    loci = []
    total = 0
    for modulus, mult in fac.factors:
        if mult != 1:
            raise VerificationError(
                f"G_{n} is not squarefree: factor {modulus} has multiplicity {mult}"
            )
        field = NumberField(modulus)
        loci.append(IntersectionLocus(n=n, field=field, r_elem=field.gen()))
        total += modulus.degree
    if total != 2 * n - 2:
        raise VerificationError(
            f"factor degrees of G_{n} sum to {total}, expected {2 * n - 2}"
        )
    return loci


def x_squared_at(locus: IntersectionLocus) -> NFElem:
    """The squared meridian trace 2 + r - 1/f_n(r)^2 in the locus field.

    f_n(r) is invertible because gcd(G_n, f_n) = 1; a zero inverse would be
    an invariant violation and surfaces as an exact-arithmetic error.
    """
    r = locus.r_elem
    fn = f_poly(locus.n)(r)
    return 2 + r - (fn * fn) ** -1


def meridian_min_poly(locus: IntersectionLocus):
    """Irreducible monic factors of the minimal polynomial of x over Q.

    Computes the minimal polynomial p of x^2, substitutes u -> x^2, and
    factors; conjugate x-values may split across several factors, so all of
    them are returned (their product is the minimal-polynomial of the whole
    +-x orbit over the locus).
    """
    if locus.x_squared is None:
        raise ValueError("locus has no x_squared; call x_squared_at first")
    p = nf_minimal_polynomial(locus.x_squared, "x")
    q = p.inflate(2)
    fac = factor_over_rationals(q)
    factors = []
    for f, mult in fac.factors:
        if mult != 1:
            raise VerificationError(
                f"meridian minimal polynomial for n = {locus.n} is not "
                f"squarefree at factor {f}"
            )
        factors.append(f)
    return tuple(factors)


def _aggregate_meridian(locus: IntersectionLocus) -> None:
    """Fill the per-factor and product verdicts; enforce 2-adic failure."""
    factors = locus.x_min_polys
    locus.factor_verdicts = tuple(integrality_verdict(f) for f in factors)
    locus.meridian_verdict = integrality_verdict(locus.x_min_poly)
    for f, v in zip(factors, locus.factor_verdicts):
        if v.is_algebraic_integer:
            continue  # handled at report level: integral meridian = failure
        if 2 not in v.bad_primes and v.prime_set_complete:
            raise VerificationError(
                f"meridian factor {f} at n = {locus.n} is non-integral but 2 "
                f"does not divide any coefficient denominator"
            )


@dataclass
class IntersectionReport:
    """Everything the slope detector and the CLI need for one knot."""

    n: int
    loci: tuple
    reducible: ReducibleCharacter
    slope: SlopeVerdict
    status: str
    d_point_count: int
    x_point_count: int
    reducible_on_x_model: bool
    reducible_is_intersection: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "status": self.status,
            "d_point_count": self.d_point_count,
            "x_point_count": self.x_point_count,
            "loci": [locus.to_json() for locus in self.loci],
            "reducible": dict(
                self.reducible.to_json(),
                on_x_model=self.reducible_on_x_model,
                is_intersection_point=self.reducible_is_intersection,
            ),
            "slope": self.slope.to_json(),
        }


def build_intersection_report(n: int) -> IntersectionReport:
    """Full pipeline for one knot: loci, meridian, longitude, slope verdict.

    Status is "ok" unless some locus has an algebraic-integer meridian trace,
    which would break the 2-adic non-integrality property the slope detection
    rests on; then the status is "verification-failure" and the slope stays
    undetermined.
    """
    loci = intersection_loci(n)
    status = "ok"
    for locus in loci:
        locus.x_squared = x_squared_at(locus)
        locus.x_min_polys = meridian_min_poly(locus)
        _aggregate_meridian(locus)
        if locus.meridian_verdict.is_algebraic_integer:
            status = "verification-failure"
        tau, min_poly, verdict = longitude_trace(locus)
        locus.longitude_elem = tau
        locus.longitude_min_poly = min_poly
        locus.longitude_verdict = verdict

    reducible = reducible_character(n)
    on_model = x_relation(n, Fraction(2), reducible.x_squared) == 0
    if not on_model:
        raise VerificationError(
            f"the reducible character of n = {n} does not lie on the variety"
        )
    # G_n(2) = n != 0, so r = 2 is never an intersection r-coordinate.
    is_intersection = G_poly(n)(Fraction(2)) == 0

    report = IntersectionReport(
        n=n,
        loci=tuple(loci),
        reducible=reducible,
        slope=SlopeVerdict(False, False, "undetermined", "pending"),
        status=status,
        d_point_count=2 * n - 2,
        x_point_count=2 * (2 * n - 2),
        reducible_on_x_model=on_model,
        reducible_is_intersection=is_intersection,
    )
    report.slope = detect_surface(report)
    return report
