"""Affine intersection characters of the two variety components.

The r-coordinates of the affine intersection points of the two components
are exactly the roots of G_n, a squarefree polynomial of degree 2n - 2, and
at each of them the t-coordinate of the second model equals r.  The
intersection points fall into Galois orbits, one per irreducible factor of
G_n, and Musser's certificate (`cvtk.factor.musser_certificate`) proves G_n
irreducible: one orbit, one number field Q[r]/(G_n).  There the meridian
trace satisfies x^2 = 2 + r - 1/f_n(r)^2, which is never an algebraic
integer (2 always divides a denominator), while the longitude trace always
is one.  That contrast is what detects the slope-0 surface.

The minimal polynomial of x is q(x) = p(x^2), p that of x^2, whenever x^2 is
not a square in the field (Capelli); a non-square witness from
`cvtk.numfield` proves that, and Musser's certificate for q stands in only
when none turns up.  A certificate that does not hold, for G_n or for q,
raises VerificationError naming its primes and degree patterns: the
certificate proves irreducibility and never disproves it, so the input is
left unproven rather than split.

Slope detection needs only the two certificates of each locus: the mod-2
identity G_n = f_n^2 proves 2 a bad prime of x (`meridian_certificate`), and
integer power-basis coordinates prove the longitude trace integral
(`longitude_certificate`).

`intersection_loci` gives one small `LocusField`: the field and its
generator r, with x^2 computed on first use.  `build_intersection_report`
turns it into a frozen `IntersectionLocus` holding x^2, the longitude
trace and both certificates; its meridian factors, minimal polynomials,
verdicts and numeric points are computed on first read, and a verdict that
contradicts a holding certificate raises.  The frozen `IntersectionReport`
computes its slope verdict once, reading a verdict only where a certificate
fails, so no read of a locus can change its status.

Numeric values at an intersection point are the images of the same exact
elements under the embedding r -> r0 of the field, r0 a complex root of m:
one `knotgrp.RootApproximations` certifies the roots and evaluates the
power-basis coordinates of x^2 and tau at them with error bounds, and
`IntersectionLocus.points` holds (r0, x0 = sqrt(x^2(r0)), tau(r0)).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import prod

from . import Record
from .cheb import G_poly, f_poly, require_family_index
from .factor import musser_certificate
from .knotgrp import RootApproximations, sorted_complex
from .numfield import (
    IntegralityVerdict,
    NFElem,
    NumberField,
    integrality_verdict,
    nf_minimal_polynomial,
    non_square_witness,
)
from .ratpoly import UniPoly, _gfb, _gfb_gcd
from .trace import (
    ReducibleCharacter,
    SlopeVerdict,
    TraceContext,
    VerificationError,
    detect_surface,
    longitude_integrality,
    longitude_value,
    reducible_character,
)
from .variety import x_relation


class LocusField:
    """The field Q[r]/(m) of the irreducible modulus m = G_n and its
    generator r.

    x_squared is computed on first use and then kept.
    """

    def __init__(self, n: int, field: NumberField, r_elem: NFElem):
        self.n, self.field, self.r_elem = n, field, r_elem

    @property
    def modulus(self) -> UniPoly:
        return self.field.modulus

    @cached_property
    def x_squared(self) -> NFElem:
        return x_squared_at(self)


class IntersectionLocus(Record):
    """The field of G_n, its two certificates and the character data over
    it.

    The minimal polynomials, verdicts and points are computed on first read
    (`to_json` reads the verdicts); slope detection needs a verdict only
    where a certificate does not hold, and a holding certificate is final.
    """

    n: int
    field: NumberField
    r_elem: NFElem
    x_squared: NFElem
    longitude_elem: NFElem
    meridian_certified: bool
    longitude_certified: bool

    @cached_property
    def x_min_polys(self) -> tuple:
        return meridian_min_poly(self)

    @cached_property
    def factor_verdicts(self) -> tuple:
        """One verdict per meridian factor.  A non-integral factor whose bad
        primes are all known must have 2 among them."""
        verdicts = tuple(integrality_verdict(f) for f in self.x_min_polys)
        for f, v in zip(self.x_min_polys, verdicts):
            if v.is_algebraic_integer or not v.prime_set_complete:
                continue
            if 2 not in v.bad_primes:
                raise VerificationError(
                    f"meridian factor {f} at n = {self.n} is non-integral but 2 "
                    f"does not divide any coefficient denominator"
                )
        return verdicts

    @cached_property
    def meridian_verdict(self) -> IntegralityVerdict:
        """Verdict on the whole meridian minimal polynomial.  An integral
        verdict beside a holding meridian certificate raises; without one it
        is the report's "verification-failure" status, slope undetermined.
        """
        self.factor_verdicts  # the bad-prime check on each factor
        verdict = integrality_verdict(self.x_min_poly)
        if verdict.is_algebraic_integer and self.meridian_certified:
            raise VerificationError(
                f"meridian trace at n = {self.n} is an algebraic integer, "
                f"contradicting its mod-2 certificate"
            )
        return verdict

    @cached_property
    def longitude_min_poly(self) -> UniPoly:
        return nf_minimal_polynomial(self.longitude_elem, "l")

    @cached_property
    def longitude_verdict(self) -> IntegralityVerdict:
        return longitude_integrality(self.n, self.longitude_min_poly)

    @cached_property
    def points(self) -> tuple:
        """(r0, x0 = sqrt(x^2(r0)), tau(r0)) at each root r0 of the modulus, as
        Python complexes in `complex_roots` order (x0 the principal root), all
        from one `RootApproximations`."""
        x2, tau = self.x_squared, self.longitude_elem
        elements = ((x2.num, x2.den, True), (tau.num, tau.den, False))
        approx = RootApproximations(self.modulus, elements)
        by_root = dict(zip(approx.roots, zip(*approx.images)))
        return tuple((r0, *by_root[r0]) for r0 in sorted_complex(by_root))

    @property
    def modulus(self) -> UniPoly:
        return self.field.modulus

    @property
    def x_min_poly(self) -> UniPoly:
        """Monic minimal polynomial of the meridian trace (factor product)."""
        return prod(self.x_min_polys, start=UniPoly.const(1, "x"))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "modulus": self.modulus.to_json(),
            "degree": self.modulus.degree,
            "x_squared": self.x_squared.to_json(),
            "x_min_polys": [p.to_json() for p in self.x_min_polys],
            "meridian_verdict": self.meridian_verdict.to_json(),
            "factor_verdicts": [v.to_json() for v in self.factor_verdicts],
            "longitude": {
                "element": self.longitude_elem.to_json(),
                "min_poly": self.longitude_min_poly.to_json(),
                "verdict": self.longitude_verdict.to_json(),
            },
        }


def _require_irreducible(poly: UniPoly, name: str) -> None:
    """Raise VerificationError unless Musser's certificate proves poly
    irreducible over Q."""
    cert = musser_certificate(poly)
    if not cert.holds:
        patterns = "; ".join(
            f"mod {p}: {'+'.join(map(str, pattern))}"
            for p, pattern in zip(cert.primes, cert.patterns)
        )
        raise VerificationError(
            f"{name} is not proven irreducible: Musser's certificate leaves a "
            f"proper factor degree at the primes {', '.join(map(str, cert.primes))} "
            f"(modular factor degrees {patterns})"
        )


def intersection_loci(n: int):
    """The one LocusField of G_n, over Q[r]/(G_n) once Musser's certificate
    proves G_n irreducible."""
    require_family_index(n)
    G = G_poly(n).with_var("r")
    _require_irreducible(G, f"G_{n}")
    field = NumberField(G.monic())
    return [LocusField(n=n, field=field, r_elem=field.gen())]


def x_squared_at(locus) -> NFElem:
    """The squared meridian trace 2 + r - 1/f_n(r)^2 at the locus generator r.

    r generates the field, so f_n(r) is the image of the polynomial f_n,
    reduced mod the modulus with no field product.  It is invertible because
    gcd(G_n, f_n) = 1; a zero f_n(r) would be an invariant violation and
    raises ZeroDivisionError.
    """
    fn = locus.field.from_poly(f_poly(locus.n))
    return 2 + locus.r_elem - (fn * fn).inverse()


def meridian_min_poly(locus):
    """The minimal polynomial of x over Q, as a one-element tuple.

    With p the minimal polynomial of x^2, x is a root of q(x) = p(x^2), and
    q is irreducible exactly when x^2 is not a square in Q(x^2) (Capelli; see
    Schinzel, Polynomials with special regard to reducibility, 2.1).  A
    non-square witness for x^2 in the locus field proves it is no square in
    that subfield either.  Without a witness, Musser's certificate for q
    must prove it irreducible, or VerificationError is raised.
    """
    p = nf_minimal_polynomial(locus.x_squared, "x")
    q = p.inflate(2)
    if non_square_witness(locus.x_squared) is None:
        _require_irreducible(q, f"the meridian polynomial q = p(x^2) at n = {locus.n}")
    return (q,)


def _monic_integral(m: UniPoly) -> bool:
    return m.den == 1 and m.lc == 1


def meridian_certificate(locus) -> bool:
    """Whether 2 provably divides a denominator of the meridian trace x.

    The modulus m is monic with integer coefficients and divides G_n, and
    G_n = f_n^2 (mod 2), so m mod 2 shares a factor with f_n mod 2; that
    one GF(2) gcd is the certificate.  Then 2 divides Res(m, f_n) =
    N(f_n(r)), so f_n(r) lies in a prime P above 2, and x^2 = 2 + r -
    1/f_n(r)^2 has v_P(x^2) = -2 v_P(f_n(r)) < 0: x is no algebraic integer
    and, integrality being Galois-invariant, 2 is a bad prime of every
    factor of its minimal polynomial.
    """
    m = locus.modulus
    if not _monic_integral(m):
        return False
    return len(_gfb_gcd(_gfb(m.num, 2), _gfb(f_poly(locus.n).num, 2), 2)) > 1


def longitude_certificate(locus, tau: NFElem) -> bool:
    """Whether the longitude trace tau is provably an algebraic integer: its
    power-basis coordinates are integers (den = 1) and r is a root of the
    monic integer modulus, so tau lies in Z[r], inside the ring of integers."""
    return tau.den == 1 and _monic_integral(locus.modulus)


def _certified_locus(base: LocusField) -> IntersectionLocus:
    """The longitude trace and both certificates over one field."""
    tau = longitude_value(TraceContext(base.n, base.r_elem, base.x_squared))
    return IntersectionLocus(
        base.n,
        base.field,
        base.r_elem,
        base.x_squared,
        tau,
        meridian_certificate(base),
        longitude_certificate(base, tau),
    )


class IntersectionReport(Record):
    """Everything the slope detector and the CLI need for one knot."""

    n: int
    loci: tuple
    reducible: ReducibleCharacter
    reducible_on_x_model: bool
    reducible_is_intersection: bool

    @cached_property
    def slope(self) -> SlopeVerdict:
        return detect_surface(self)

    @property
    def status(self) -> str:
        """Either "ok" or "verification-failure" (a meridian trace is integral)."""
        return "verification-failure" if self.slope.meridian_integral else "ok"

    @property
    def d_point_count(self) -> int:
        return sum(locus.modulus.degree for locus in self.loci)

    @property
    def x_point_count(self) -> int:
        return 2 * self.d_point_count

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
    """Full pipeline for one knot: certified loci and the reducible character."""
    loci = tuple(_certified_locus(base) for base in intersection_loci(n))
    reducible = reducible_character(n)
    on_model = x_relation(n, Fraction(2), reducible.x_squared) == 0
    if not on_model:
        raise VerificationError(
            f"the reducible character of n = {n} does not lie on the variety"
        )
    # G_n(2) = n != 0, so r = 2 is never an intersection r-coordinate.
    is_intersection = G_poly(n)(Fraction(2)) == 0
    return IntersectionReport(
        n=n,
        loci=loci,
        reducible=reducible,
        reducible_on_x_model=on_model,
        reducible_is_intersection=is_intersection,
    )
