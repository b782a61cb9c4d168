"""Tests for the intersection loci and the assembled report.

The golden n = 2 and n = 3 data pin the exact moduli, meridian minimal
polynomials, and verdicts; a numeric cross-check re-derives the squared
meridian trace from isolated roots of the modulus.
"""

import time
from collections import Counter
from dataclasses import FrozenInstanceError, make_dataclass
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest

from cvtk import Record
from cvtk.cheb import G_poly, f_poly
from cvtk.factor import musser_certificate
from cvtk.golden import default_fixtures
from cvtk.intersect import (
    IntersectionReport,
    build_intersection_report,
    intersection_loci,
    meridian_certificate,
    meridian_min_poly,
    x_squared_at,
)
from cvtk.knotgrp import RootApproximations, _zform_seeds, family_words, numeric_rep
from cvtk.numfield import (
    IntegralityVerdict,
    NFElem,
    NumberField,
    integrality_verdict,
    nf_minimal_polynomial,
    non_square_witness,
)
from cvtk.ratpoly import _GFB_PRIMES, UniPoly, _gfb, _gfb_gcd
from cvtk.trace import (
    TraceContext,
    VerificationError,
    boundary_slope_candidates,
    longitude_trace,
    longitude_value,
    reducible_character,
)
from cvtk.variety import bezout_budget, d_split
from cvtk.verify import CheckResult
from roots import complex_roots


def test_loci_moduli_frozen():
    loci2 = intersection_loci(2)
    assert len(loci2) == 1
    assert loci2[0].modulus == UniPoly([2, -2, 1], "r")
    loci3 = intersection_loci(3)
    assert len(loci3) == 1
    assert loci3[0].modulus == UniPoly([3, 0, 0, -2, 1], "r")


def test_loci_degree_sum():
    for n in range(2, 9):
        assert sum(l.modulus.degree for l in intersection_loci(n)) == 2 * n - 2


def test_x_squared_n2_exact():
    locus = intersection_loci(2)[0]
    x2 = x_squared_at(locus)
    r = locus.r_elem
    assert x2 == (3 * r + 3) * Fraction(1, 2)


def test_field_product_counts(monkeypatch):
    """x^2 takes f_n(r) as the image of f_n at the generator, and the
    longitude value reads every f_j from one table at r (t = r there), so
    neither makes a Horner pass of field products per f_j."""
    calls = [0]
    mul = NFElem.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(NFElem, "__mul__", counted)
    monkeypatch.setattr(NFElem, "__rmul__", counted)
    for n in (8, 16, 32):
        locus = intersection_loci(n)[0]
        calls[0] = 0
        x2 = x_squared_at(locus)
        assert calls[0] <= 3, (n, calls[0])
        calls[0] = 0
        longitude_value(TraceContext(n, locus.r_elem, x2))
        assert calls[0] <= n + 32, (n, calls[0])


def test_x_squared_requires_invertible_f_n():
    for n in range(2, 9):
        for locus in intersection_loci(n):
            x2 = x_squared_at(locus)
            fn = f_poly(n)(locus.r_elem)
            assert (2 + locus.r_elem - x2) * fn * fn == locus.field.one()


def test_x_squared_matches_sympy_inverse():
    """The closed form 2 + r - V_n(r)^2 / (4 n^2) equals 2 + r - 1/f_n(r)^2
    with the inverse taken by sympy in QQ[r]/(G_n): an independent oracle
    for the field inverse that x_squared_at does without."""
    sympy = pytest.importorskip("sympy")
    r = sympy.Symbol("r")

    def to_sympy(p):
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
        return sympy.Poly(coeffs, r, domain=sympy.QQ)

    for n in range(2, 17):
        (locus,) = intersection_loci(n)
        m, fn = to_sympy(locus.modulus), to_sympy(f_poly(n))
        want = (sympy.Poly(r + 2, r, domain=sympy.QQ) - (fn * fn).invert(m)).rem(m)
        coords = [Fraction(int(c.p), int(c.q)) for c in reversed(want.all_coeffs())]
        coords += [Fraction(0)] * (locus.modulus.degree - len(coords))
        assert x_squared_at(locus).coeffs == tuple(coords), n


def _perturb_f_above(monkeypatch, n):
    """Replace intersect's f_{n+1} by f_{n+1} + 1, so that V_n is off by 1."""
    from cvtk import intersect

    real = intersect.f_poly
    monkeypatch.setattr(intersect, "f_poly", lambda j: real(j) + 1 if j == n + 1 else real(j))


def test_wrong_v_n_fails_the_closed_form_check(monkeypatch):
    """Negative control: with V_n off by 1, f_n(r) V_n(r) = -2n + f_n(r) is not
    -2n (f_n(r) != 0), and x_squared_at raises instead of returning x^2."""
    for n in range(2, 13):
        (locus,) = intersection_loci(n)
        with monkeypatch.context() as patch:
            _perturb_f_above(patch, n)
            with pytest.raises(VerificationError) as exc:
                x_squared_at(locus)
        assert f"f_{n}(r) V_{n}(r) is not -{2 * n} " in str(exc.value)


def test_wrong_v_n_is_a_verification_failure(monkeypatch, capsys):
    """Negative control: detect with V_8 off exits 1 with a verification
    failure, not 2 as a usage error."""
    from cvtk.cli import main

    _perturb_f_above(monkeypatch, 8)
    assert main(["detect", "--n", "8", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verification failure: f_8(r) V_8(r) is not -16")


def test_meridian_min_poly_frozen():
    fx = default_fixtures()
    for n in (2, 3):
        locus = intersection_loci(n)[0]
        assert meridian_min_poly(locus) == (UniPoly(fx[n].x_poly.coeffs, "x").monic(),)


def test_meridian_degree_bookkeeping():
    for n in range(2, 9):
        for locus in intersection_loci(n):
            factors = meridian_min_poly(locus)
            assert sum(p.degree for p in factors) == 2 * locus.modulus.degree


def test_witness_path_matches_factoring():
    """Every x^2 for n = 2..24 has a non-square witness, checked against
    sympy's primality test and Legendre symbol, and the q it proves
    irreducible is irreducible by sympy too."""
    sympy = pytest.importorskip("sympy")

    for n in range(2, 25):
        for locus in intersection_loci(n):
            a = locus.x_squared
            ell, r0 = non_square_witness(a)
            m = locus.modulus.num
            assert sympy.isprime(ell) and ell in _GFB_PRIMES[1:] and a.den % ell
            assert sum(c * r0 ** i for i, c in enumerate(m)) % ell == 0
            assert sum(i * c * r0 ** (i - 1) for i, c in enumerate(m) if i) % ell
            value = sum(c * r0 ** i for i, c in enumerate(a.num)) * pow(a.den, -1, ell)
            assert sympy.legendre_symbol(value % ell, ell) == -1
            q = nf_minimal_polynomial(a, "x").inflate(2)
            x = sympy.Symbol("x")
            assert sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                               for c in reversed(q.coeffs)], x).is_irreducible
            assert meridian_min_poly(locus) == (q,)


def test_reducible_g_n_is_a_verification_failure(monkeypatch, capsys):
    """Negative control: with G_12 replaced by the reducible G_12 * G_13,
    Musser's certificate cannot hold, and detect exits 1 with a
    verification failure naming n and the primes, at once and not as a
    usage error."""
    from cvtk import intersect
    from cvtk.cli import main

    monkeypatch.setattr(intersect, "G_poly", lambda n: G_poly(n) * G_poly(n + 1))
    start = time.monotonic()
    assert main(["detect", "--n", "12"]) == 1
    assert time.monotonic() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verification failure: G_12 is not proven irreducible")
    assert "at the primes 7, 11, 17, " in captured.err and "mod 83: " in captured.err


def test_unprovable_meridian_polynomial_is_a_verification_failure(monkeypatch, capsys):
    """Negative control: without a non-square witness, a meridian
    polynomial that is irreducible but splits mod every prime, here the
    Swinnerton-Dyer u^4 - 10u^2 + 1 = p(x^2), is left unproven, and
    intersect exits 1 with a verification failure rather than split it."""
    from cvtk import intersect
    from cvtk.cli import main

    real = intersect.nf_minimal_polynomial
    sd = UniPoly([1, -10, 1], "x")
    monkeypatch.setattr(intersect, "non_square_witness", lambda a: None)
    monkeypatch.setattr(intersect, "nf_minimal_polynomial",
                        lambda elem, var: sd if var == "x" else real(elem, var))
    assert main(["intersect", "--n", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failure: the meridian polynomial q = p(x^2) "
                          "at n = 2 is not proven irreducible")
    assert "mod 5: 2+2" in err


def test_report_without_witness_is_unchanged(monkeypatch):
    from cvtk import intersect

    want = [build_intersection_report(n).to_json() for n in range(2, 10)]
    monkeypatch.setattr(intersect, "non_square_witness", lambda a: None)
    assert [build_intersection_report(n).to_json() for n in range(2, 10)] == want


def test_report_n2_n3():
    assert IntersectionReport.status == "ok"
    assert IntersectionReport.slope.detected_slope == 0
    assert IntersectionReport.slope.surface_description == "genus 1 Seifert surface"
    assert IntersectionReport.reducible_on_x_model
    assert not IntersectionReport.reducible_is_intersection
    assert IntersectionReport._fields == ("n", "locus", "reducible")
    for n in (2, 3):
        rep = build_intersection_report(n)
        assert rep.d_point_count == 2 * n - 2
        assert rep.x_point_count == 2 * (2 * n - 2)
        assert not rep.locus.meridian_verdict.is_algebraic_integer
        assert 2 in rep.locus.meridian_verdict.bad_primes
        assert rep.locus.longitude_verdict.is_algebraic_integer


def test_certificates_match_min_poly_verdicts():
    """Oracle: the meridian certificate agrees with the minimal-polynomial
    verdict, non-integral with 2 among its bad primes, and the report's
    slope is the one the certificate gives, n = 2..24."""
    for n in range(2, 25):
        rep = build_intersection_report(n)
        mer = rep.locus.meridian_verdict
        assert meridian_certificate(rep.locus)
        assert not mer.is_algebraic_integer and 2 in mer.bad_primes
        assert not rep.slope.meridian_integral and rep.slope.detected_slope == 0


def test_longitude_is_affine_in_x_squared():
    """tau = -2 - 4n^2 (x^2 - 4) with integer power-basis coordinates in
    Q[r]/(G_n), n = 2..128, from the field, x^2 and the trace formula alone;
    at the reducible character x^2 = (4n^2 - 1)/n^2 the map gives tau = 2."""
    for n in range(2, 129):
        field = NumberField(G_poly(n).with_var("r"))
        locus = SimpleNamespace(n=n, field=field, r_elem=field.gen())
        x2 = x_squared_at(locus)
        tau = longitude_value(TraceContext(n, locus.r_elem, x2))
        assert tau == -2 - 4 * n * n * (x2 - 4), n
        assert tau.den == 1, n
        rc = reducible_character(n)
        assert -2 - 4 * n * n * (rc.x_squared - 4) == rc.longitude_trace == 2


def test_longitude_min_poly_matches_power_sums():
    """Oracle: the longitude minimal polynomial read off the meridian's
    equals the power-sum minimal polynomial of tau, n = 2..40 and n = 64."""
    for n in [*range(2, 41), 64]:
        locus = build_intersection_report(n).locus
        assert locus.longitude_min_poly == nf_minimal_polynomial(locus.longitude_elem, "l"), n


def test_meridian_certificate_needs_a_factor_of_f_n_mod_2():
    """(r^2 + r + 1)^2 + 2 reduces to a square mod 2 that is coprime to
    f_2 = r, so it is not f_2^2 mod 2 (a test of squares alone would pass
    it); a modulus that is not monic over the integers certifies nothing."""
    assert meridian_certificate(SimpleNamespace(n=2, modulus=UniPoly([2, -2, 1], "r")))
    square_mod_2 = UniPoly([3, 2, 3, 2, 1], "r")
    assert not meridian_certificate(SimpleNamespace(n=2, modulus=square_mod_2))
    halves = UniPoly([Fraction(1, 2), 0, 1], "r")
    assert not meridian_certificate(SimpleNamespace(n=2, modulus=halves))


def test_meridian_certificate_matches_the_gf2_gcd():
    """Oracle: on the locus modulus G_n the congruence G_n = f_n^2 (mod 2)
    holds exactly where G_n and f_n share a factor mod 2, for n = 2..128.
    The monic r(r + 1) shares the factor r with f_2 mod 2 but is not r^2
    mod 2, so the congruence rejects it where the gcd accepts it."""
    def shares_a_factor(m, n):
        return len(_gfb_gcd(_gfb(m.num, 2), _gfb(f_poly(n).num, 2), 2)) > 1

    for n in range(2, 129):
        G = G_poly(n)
        assert meridian_certificate(SimpleNamespace(n=n, modulus=G)) == shares_a_factor(G, n)
        assert shares_a_factor(G, n)
    r_r1 = UniPoly([0, 1, 1], "r")
    assert shares_a_factor(r_r1, 2)
    assert not meridian_certificate(SimpleNamespace(n=2, modulus=r_r1))


def test_non_integral_meridian_without_two_raises(monkeypatch):
    """integrality_verdict divides by 2 before any other prime, so a
    non-integral meridian verdict without 2 contradicts the mod-2 argument
    even when its prime set is incomplete."""
    from cvtk import intersect

    cofactor = 1000003 * 1000033
    verdict = IntegralityVerdict(False, 3 * cofactor, (3,), cofactor)
    assert not verdict.prime_set_complete
    monkeypatch.setattr(intersect, "integrality_verdict", lambda poly: verdict)
    locus = build_intersection_report(3).locus
    with pytest.raises(VerificationError, match="2 does not divide"):
        locus.meridian_verdict


def test_meridian_two_adic_range():
    for n in range(2, 9):
        rep = build_intersection_report(n)
        assert rep.status == "ok"
        verdict = rep.locus.meridian_verdict
        assert not verdict.is_algebraic_integer
        assert 2 in verdict.bad_primes


def test_report_json_holds_one_orbit():
    """G_n is proven irreducible, so the report JSON holds one locus, whose
    list keys "x_min_polys" and "factor_verdicts" keep one element each: the
    meridian polynomial and its verdict."""
    for n in range(2, 9):
        report = build_intersection_report(n)
        (locus,) = report.to_json()["loci"]
        assert locus["x_min_polys"] == [report.locus.x_min_poly.to_json()]
        assert locus["factor_verdicts"] == [locus["meridian_verdict"]]
        assert report.d_point_count == locus["degree"] == 2 * n - 2


def test_report_computes_one_meridian_verdict(monkeypatch):
    """Building and serializing a report takes one integrality verdict on
    the meridian polynomial, not one per factor and one for their product."""
    from cvtk import intersect

    calls = []
    monkeypatch.setattr(intersect, "integrality_verdict",
                        lambda poly: calls.append(poly) or integrality_verdict(poly))
    report = build_intersection_report(3)
    report.to_json()
    assert calls == [report.locus.x_min_poly]


def _mpc(point, bits):
    return mpmath.mpc(mpmath.ldexp(point[0], -bits), mpmath.ldexp(point[1], -bits))


def test_numeric_cross_check_roots():
    """At every certified root r0 of every modulus, n = 2..12, the images of
    the exact x^2, its principal square root and the longitude trace under
    r -> r0 agree to 30 digits with the formula 2 + r0 - 1/f_n(r0)^2, its
    mpmath square root, and the trace calculus replayed in mpmath at r0."""
    with mpmath.workdps(40):
        for n in range(2, 13):
            locus = build_intersection_report(n).locus
            x2, tau = locus.x_squared, locus.longitude_elem
            approx = RootApproximations(locus.modulus, [
                (x2.num, x2.den, False),
                (x2.num, x2.den, True),
                (tau.num, tau.den, False),
            ], _zform_seeds(n))
            images = approx.fixed_images
            for i, point in enumerate(approx.points):
                r0 = _mpc(point, approx.bits)
                x2_value = 2 + r0 - 1 / f_poly(n)(r0) ** 2
                values = (
                    x2_value,
                    mpmath.sqrt(x2_value),
                    longitude_value(TraceContext(n, r0, x2_value)),
                )
                for (bits, got), value in zip(images, values):
                    assert mpmath.almosteq(_mpc(got[i], bits), value, 1e-30, 1e-30)


def test_paired_points_halve_the_fixed_point_evaluations(monkeypatch):
    """`IntersectionLocus.points` at n = 4, 8, 12 calls `_horner_fixed` and
    `_value_fixed` at most half as often (rounded up) as with the conjugate
    pairs switched off; the counts repeat exactly, so no clock is read."""
    from cvtk import knotgrp

    calls = Counter()
    for name in ("_horner_fixed", "_value_fixed"):
        good = getattr(knotgrp, name)
        monkeypatch.setattr(knotgrp, name,
                            lambda *args, good=good, name=name: calls.update([name]) or good(*args))

    def counts(n):
        calls.clear()
        build_intersection_report(n).locus.points
        return calls["_horner_fixed"], calls["_value_fixed"]

    paired = {n: counts(n) for n in (4, 8, 12)}
    assert paired[12][0] <= 49 and paired[12][1] <= 33
    monkeypatch.setattr(knotgrp, "_conjugate_pairs", lambda seeds: ())
    for n, (horner, value) in paired.items():
        unpaired_horner, unpaired_value = counts(n)
        assert horner <= -(-unpaired_horner // 2) and value <= -(-unpaired_value // 2), n


def test_consistency_with_fixture_elimination():
    """The x-eliminant roots of the fixture components coincide with the
    meridian minimal polynomial roots (same monic polynomial, and numerically
    the same point sets)."""
    from cvtk.factor import squarefree_part
    from cvtk.variety import bezout_budget

    fx = default_fixtures()
    for n in (2, 3):
        locus = intersection_loci(n)[0]
        budget = bezout_budget(n)
        assert (budget.x_eliminant.monic(),) == meridian_min_poly(locus)
        r_roots = set(
            (round(z.real, 9), round(z.imag, 9))
            for z in complex_roots(squarefree_part(budget.r_eliminant))
        )
        m_roots = set(
            (round(z.real, 9), round(z.imag, 9)) for z in complex_roots(locus.modulus)
        )
        assert r_roots == m_roots


def test_report_json_shape():
    rep = build_intersection_report(2)
    obj = rep.to_json()
    assert obj["n"] == 2 and obj["status"] == "ok"
    assert obj["slope"]["detected_slope"] == 0
    locus = obj["loci"][0]
    assert locus["modulus"]["coeffs"] == ["2", "-2", "1"]
    assert locus["meridian_verdict"]["integral"] is False
    assert locus["meridian_verdict"]["bad_primes"] == [2]
    assert locus["longitude"]["min_poly"]["coeffs"] == ["772", "-28", "1"]
    assert obj["reducible"]["x_squared"] == "15/4"
    assert obj["reducible"]["is_intersection_point"] is False


def _record_samples() -> list:
    """One instance of every Record subclass, as the pipeline builds it."""
    report = build_intersection_report(2)
    locus = report.locus
    r0, x0, _ = locus.points[0]
    return [
        musser_certificate(G_poly(2)),
        default_fixtures()[2],
        locus,
        report,
        family_words(2),
        numeric_rep(2, r0, x0),
        locus.r_elem,
        locus.meridian_verdict,
        IntegralityVerdict(False, 6, (2, 3), 35),
        report.reducible,
        boundary_slope_candidates(2)[0],
        report.slope,
        d_split(2),
        bezout_budget(2),
        CheckResult("name", True, "detail"),
    ]


def test_report_records_are_frozen():
    rep = build_intersection_report(2)
    with pytest.raises(FrozenInstanceError):
        rep.locus.x_squared = rep.locus.r_elem
    with pytest.raises(FrozenInstanceError):
        rep.locus.meridian_verdict = rep.locus.longitude_verdict
    with pytest.raises(FrozenInstanceError):
        rep.n = 3
    with pytest.raises(FrozenInstanceError):
        rep.locus = None
    for record in _record_samples():
        for name in type(record).__annotations__:
            with pytest.raises(FrozenInstanceError):
                setattr(record, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(record, name)


def test_records_behave_as_frozen_dataclasses():
    """Each record equals, hashes and prints as the frozen dataclass with its
    fields and values would, so set and dict orders and printed records are
    those of the dataclasses the records replace."""
    samples = _record_samples()
    assert {type(x) for x in samples} == set(Record.__subclasses__())
    for record in samples:
        cls = type(record)
        names = tuple(cls.__annotations__)
        values = tuple(getattr(record, f) for f in names)
        oracle = make_dataclass(cls.__qualname__, names, frozen=True)(*values)
        assert cls(*values) == record == cls(**dict(zip(names, values)))
        assert cls(object(), *values[1:]) != record
        assert record != oracle and oracle != record and record != values
        assert hash(record) == hash(values) == hash(oracle)
        if cls.__repr__ is Record.__repr__:  # NFElem prints as a polynomial
            assert repr(record) == repr(oracle)
        for args, kwargs in (((), {}), (values, {"extra": 0}), (values + (0,), {})):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)
    assert IntegralityVerdict(True, 1, ()).composite_cofactor is None


def _read_every_locus(report):
    locus = report.locus
    locus.x_min_poly, locus.meridian_verdict, locus.longitude_verdict, locus.points


def test_status_and_slope_do_not_depend_on_reads():
    """A report's status and slope are the same before and after every
    locus verdict and point set is read, and whichever is read first."""
    for n in range(2, 9):
        report = build_intersection_report(n)
        before = (report.status, report.slope)
        _read_every_locus(report)
        assert (report.status, report.slope) == before
        loci_first = build_intersection_report(n)
        _read_every_locus(loci_first)
        assert (loci_first.status, loci_first.slope) == before
        assert before[0] == "ok" and before[1].detected_slope == 0


def test_points_pair_each_root_with_its_images():
    """points lists (r0, x0, tau0) in complex_roots order, x0 the principal
    square root of 2 + r0 - 1/f_n(r0)^2 and tau0 a root of the longitude
    minimal polynomial; it is computed once per locus."""
    for n in range(2, 7):
        locus = build_intersection_report(n).locus
        points = locus.points
        assert locus.points is points
        assert [r0 for r0, _, _ in points] == complex_roots(locus.modulus)
        taus = complex_roots(locus.longitude_min_poly)
        for r0, x0, tau0 in points:
            x2 = 2 + r0 - 1 / complex(f_poly(n)(r0)) ** 2
            assert abs(x0 - x2 ** 0.5) <= 1e-9 * max(1, abs(x0))
            assert min(abs(tau0 - t) for t in taus) <= 1e-9 * max(1, abs(tau0))


def test_staged_path_matches_report():
    """The staged path, driven step by step as the benchmark's library
    workload (perfbench/child.py) drives it, gives the data of the built
    report."""
    for n in range(2, 9):
        done = build_intersection_report(n).locus
        (locus,) = intersection_loci(n)
        locus.x_squared = x_squared_at(locus)
        factors = meridian_min_poly(locus)
        tau, min_poly, verdict = longitude_trace(locus)
        assert locus.modulus == done.modulus
        assert locus.x_squared == done.x_squared
        assert factors == (done.x_min_poly,)
        assert [integrality_verdict(f) for f in factors] == [done.meridian_verdict]
        assert (tau, min_poly, verdict) == (
            done.longitude_elem,
            done.longitude_min_poly,
            done.longitude_verdict,
        )


def test_input_validation():
    with pytest.raises(ValueError):
        intersection_loci(1)
    with pytest.raises(ValueError):
        build_intersection_report(0)
