"""Affine intersection characters of the two variety components.

The r-coordinates of the affine intersection points of the two components
are exactly the roots of G_n, a squarefree polynomial of degree 2n - 2, and
at each of them the t-coordinate of the second model equals r.  Musser's
certificate (`cvtk.factor.musser_certificate`) proves G_n irreducible, so
the points form one Galois orbit, the one locus of the report, in the number
field Q[r]/(G_n).  There the meridian trace satisfies x^2 = 2 + r -
1/f_n(r)^2, which is never an algebraic integer (2 always divides a
denominator), while the longitude trace always is one.  That contrast is
what detects the slope-0 surface.  Since f_n(r) V_n(r) = -2n in the field,
V_n = f_{n+1} - f_{n-1}, x^2 is formed as 2 + r - V_n(r)^2 / (4 n^2), with
no inverse in the field and the identity checked by one field product.

The minimal polynomial of x is q(x) = p(x^2), p that of x^2, whenever x^2 is
not a square in the field (Capelli); a non-square witness from
`cvtk.numfield` proves that, and Musser's certificate for q stands in only
when none turns up.  A certificate that does not hold, for G_n or for q,
raises VerificationError naming its primes and degree patterns: it proves
irreducibility and never disproves it.

Slope detection reads two exact checks made when the report is built.  The
mod-2 identity G_n = f_n^2 proves 2 a bad prime of the meridian trace x
(`meridian_certificate`), and the longitude trace tau
(`trace.longitude_value`) is checked, by scalar operations alone, to equal
-2 - 4n^2 (x^2 - 4) = V_n(r)^2 - 2 + 4n^2 (2 - r), which lies in Z[r] as G_n
is monic over the integers.  Either failing raises VerificationError, so a
report that is built has detected slope 0.  The affine map carries p to the
minimal polynomial of tau, so one power-sum minimal polynomial
(`numfield.nf_minimal_polynomial`) serves both traces.

`build_intersection_report` turns the field and its generator r into the
frozen `IntersectionLocus`, holding x^2 and the checked tau; q, both
verdicts and the numeric points are computed on first read, and a verdict
that contradicts a check raises.  The slope verdict, status and reducible
flags of the frozen `IntersectionReport` are constants, so no read can
change them: the build checks that the reducible character lies on the X
model, and G_n(2) = n (f_{2n}(2) = 2n in (u + 2) G_n = f_{2n} + 2n) keeps
it off the locus.

Numeric values at an intersection point are the images of the same exact
elements under the embedding r -> r0 of the field, r0 a complex root of m:
one `knotgrp.RootApproximations` certifies the roots and evaluates the
power-basis coordinates of x^2 and tau at them with error bounds, and
`IntersectionLocus.points` holds (r0, x0 = sqrt(x^2(r0)), tau(r0)).  m has
integer coefficients, so its roots come in conjugate pairs.  The float
seeds come from the four-term form of G_n in z, r = z + 1/z
(`knotgrp._zform_seeds`), and pair up at every n tried: one root of each
pair is refined, bounded and evaluated, and the other is its exact
conjugate, with the conjugate x^2 and tau and its own principal square root.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import Record
from .cheb import G_poly, f_poly, require_family_index, square_mod_two
from .factor import musser_certificate
from .knotgrp import RootApproximations, _zform_seeds, sorted_complex
from .numfield import (
    IntegralityVerdict,
    NFElem,
    NumberField,
    integrality_verdict,
    nf_minimal_polynomial,
    non_square_witness,
)
from .ratpoly import UniPoly
from .trace import (
    ReducibleCharacter,
    SlopeVerdict,
    TraceContext,
    VerificationError,
    longitude_integrality,
    longitude_value,
    reducible_character,
)
from .variety import x_relation


class LocusField:
    """The field Q[r]/(m) of the irreducible modulus m = G_n and its
    generator r.

    x_squared, the closed form of `x_squared_at`, is computed on first use
    and then kept; perfbench/child.py assigns it to time `x_squared_at` on
    its own.
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
    """The field of G_n and the character data over it, its meridian
    certificate held and tau already checked against x^2.

    The minimal polynomials, verdicts and points are computed on first read
    (`to_json` reads the verdicts); slope detection reads none of them.
    """

    n: int
    field: NumberField
    r_elem: NFElem
    x_squared: NFElem
    longitude_elem: NFElem

    @cached_property
    def x_min_poly(self) -> UniPoly:
        """Monic minimal polynomial q = p(x^2) of the meridian trace."""
        (q,) = meridian_min_poly(self)
        return q

    @cached_property
    def meridian_verdict(self) -> IntegralityVerdict:
        """Verdict on the meridian minimal polynomial.  The locus exists only
        where the mod-2 certificate holds, so an integral verdict contradicts
        it and raises, and so does a non-integral one without 2 among its
        bad primes (`integrality_verdict` divides by 2 first, so it knows
        this even when its prime set is incomplete).
        """
        verdict = integrality_verdict(self.x_min_poly)
        if verdict.is_algebraic_integer:
            raise VerificationError(
                f"meridian trace at n = {self.n} is an algebraic integer, "
                f"contradicting its mod-2 certificate"
            )
        if 2 not in verdict.bad_primes:
            raise VerificationError(
                f"meridian polynomial {self.x_min_poly} at n = {self.n} is non-integral "
                f"but 2 does not divide any coefficient denominator"
            )
        return verdict

    @cached_property
    def longitude_min_poly(self) -> UniPoly:
        """Monic minimal polynomial of tau = -2 - 4n^2 (x^2 - 4): with p the
        even part of q = p(x^2), p(4 - (l + 2) / (4n^2)) made monic, exact
        because the affine map is invertible."""
        q, s = self.x_min_poly, 4 * self.n * self.n
        p = UniPoly.from_ints(q.num[::2], q.den, "l")
        return p(UniPoly([Fraction(4 * s - 2, s), Fraction(-1, s)], "l")).monic()

    @cached_property
    def longitude_verdict(self) -> IntegralityVerdict:
        return longitude_integrality(self.n, self.longitude_min_poly)

    @cached_property
    def points(self) -> tuple:
        """(r0, x0 = sqrt(x^2(r0)), tau(r0)) at each root r0 of the modulus, as
        Python complexes in `sorted_complex` order of r0 (x0 the principal
        root), all from one `RootApproximations` seeded by `_zform_seeds`."""
        x2, tau = self.x_squared, self.longitude_elem
        elements = ((x2.num, x2.den, True), (tau.num, tau.den, False))
        approx = RootApproximations(self.modulus, elements, _zform_seeds(self.n))
        by_root = dict(zip(approx.roots, zip(*approx.images)))
        return tuple((r0, *by_root[r0]) for r0 in sorted_complex(by_root))

    @property
    def modulus(self) -> UniPoly:
        return self.field.modulus

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "modulus": self.modulus.to_json(),
            "degree": self.modulus.degree,
            "x_squared": self.x_squared.to_json(),
            "x_min_polys": [self.x_min_poly.to_json()],
            "meridian_verdict": self.meridian_verdict.to_json(),
            "factor_verdicts": [self.meridian_verdict.to_json()],
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
    proves G_n irreducible, in a one-element list: perfbench/child.py
    iterates over it."""
    require_family_index(n)
    G = G_poly(n).with_var("r")
    _require_irreducible(G, f"G_{n}")
    field = NumberField(G.monic())
    return [LocusField(n=n, field=field, r_elem=field.gen())]


def x_squared_at(locus) -> NFElem:
    """The squared meridian trace x^2 = 2 + r - 1/f_n(r)^2 at the locus
    generator r, in the closed form 2 + r - V_n(r)^2 / (4 n^2).

    V_n = f_{n+1} - f_{n-1} = tr((ab^-1)^n) has f_n V_n = f_{2n}, and
    (u + 2) G_n = f_{2n} + 2n, so f_n(r) V_n(r) = -2n in Q[r]/(G_n): the
    inverse of f_n(r) is -V_n(r) / (2n), with no division in the field.  r
    generates the field, so f_n(r) and V_n(r) are images of polynomials,
    reduced with no field product.  The one product f_n(r) V_n(r) is
    checked to be -2n, which also proves f_n(r) != 0; a failure raises
    VerificationError.
    """
    n, field = locus.n, locus.field
    fn = field.from_poly(f_poly(n))
    vn = field.from_poly(f_poly(n + 1) - f_poly(n - 1))
    if fn * vn != field.elem((-2 * n,)):
        raise VerificationError(
            f"f_{n}(r) V_{n}(r) is not -{2 * n} in Q[r]/(G_{n}): the closed form "
            f"of the squared meridian trace does not hold"
        )
    return 2 + locus.r_elem - (vn * vn) * Fraction(1, 4 * n * n)


def meridian_min_poly(locus):
    """The minimal polynomial of x over Q, as a one-element tuple.

    With p the minimal polynomial of x^2, x is a root of q(x) = p(x^2), and
    q is irreducible exactly when x^2 is not a square in Q(x^2) (Capelli; see
    Schinzel, Polynomials with special regard to reducibility, 2.1).  A
    non-square witness for x^2 in the locus field proves it is no square in
    that subfield either.  Without a witness, Musser's certificate for q
    must prove it irreducible, or VerificationError is raised.  The tuple
    stays because perfbench/child.py iterates over it.
    """
    p = nf_minimal_polynomial(locus.x_squared, "x")
    q = p.inflate(2)
    if non_square_witness(locus.x_squared) is None:
        _require_irreducible(q, f"the meridian polynomial q = p(x^2) at n = {locus.n}")
    return (q,)


def meridian_certificate(locus) -> bool:
    """Whether 2 provably divides a denominator of the meridian trace x.

    The certificate is the congruence G_n = f_n^2 (mod 2) for the monic
    integer modulus m = G_n, read by `cheb.square_mod_two`.  f_n is monic of
    degree n - 1 >= 1, so f_n mod 2 is not constant and, by the congruence,
    divides m mod 2.  Then 2 divides Res(m, f_n) = N(f_n(r)), so f_n(r) lies
    in a prime P above 2.  The product f_n(r) V_n(r) = -2n that
    `x_squared_at` checks gives v_P(V_n(r)) = v_P(2n) - v_P(f_n(r)), so the
    term V_n(r)^2 / (4 n^2) of x^2 = 2 + r - V_n(r)^2 / (4 n^2) has
    valuation -2 v_P(f_n(r)) < 0, while 2 + r is an algebraic integer:
    v_P(x^2) = -2 v_P(f_n(r)) < 0.  So x is no algebraic integer and,
    integrality being Galois-invariant, 2 is a bad prime of every factor of
    its minimal polynomial.
    """
    m = locus.modulus
    return m.den == 1 and m.lc == 1 and square_mod_two(m, f_poly(locus.n))


class IntersectionReport(Record):
    """Everything the CLI needs for one knot.

    A report is built only where both checks of its locus hold, so its
    slope verdict is always the genus 1 Seifert surface of slope 0 and its
    status always "ok"; the reducible flags are fixed too (see the module
    docstring).  All four are class constants, not fields.
    """

    n: int
    locus: IntersectionLocus
    reducible: ReducibleCharacter

    slope = SlopeVerdict(False, True, 0, "genus 1 Seifert surface")
    status = "ok"
    reducible_on_x_model = True
    reducible_is_intersection = False

    @property
    def d_point_count(self) -> int:
        return self.locus.modulus.degree

    @property
    def x_point_count(self) -> int:
        return 2 * self.d_point_count

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "status": self.status,
            "d_point_count": self.d_point_count,
            "x_point_count": self.x_point_count,
            "loci": [self.locus.to_json()],
            "reducible": dict(
                self.reducible.to_json(),
                on_x_model=self.reducible_on_x_model,
                is_intersection_point=self.reducible_is_intersection,
            ),
            "slope": self.slope.to_json(),
        }


def build_intersection_report(n: int) -> IntersectionReport:
    """Full pipeline for one knot: the certified locus and the reducible
    character.  The longitude identity and the mod-2 meridian certificate
    are checked here; either failing raises VerificationError."""
    (base,) = intersection_loci(n)
    x2 = base.x_squared
    tau = longitude_value(TraceContext(n, base.r_elem, x2))
    if tau != -2 - 4 * n * n * (x2 - 4):
        raise VerificationError(
            f"longitude trace at n = {n} is not -2 - 4n^2 (x^2 - 4) in "
            f"Q[r]/(G_{n}), so it is not proven an algebraic integer"
        )
    if not meridian_certificate(base):
        raise VerificationError(
            f"G_{n} is not f_{n}^2 mod 2, so the meridian trace at n = {n} is "
            f"not proven non-integral"
        )
    locus = IntersectionLocus(n, base.field, base.r_elem, x2, tau)
    reducible = reducible_character(n)
    if x_relation(n, Fraction(2), reducible.x_squared) != 0:
        raise VerificationError(
            f"the reducible character of n = {n} does not lie on the variety"
        )
    return IntersectionReport(n=n, locus=locus, reducible=reducible)
