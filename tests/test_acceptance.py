"""Acceptance gate: the published-data criteria and the runtime budgets.

Each test is one criterion, named so the verbose test listing reads as one
pass/fail line per criterion. Exact polynomial data is pinned against the
printed reference values; numeric checks use the stated tolerances; the
runtime budgets are asserted, not just hoped for.
"""

import cmath
import hashlib
import json
import time
from fractions import Fraction

from cvtk.cheb import G_poly, f_poly, failed_identities
from cvtk.cli import main
from cvtk.factor import squarefree_part
from cvtk.golden import default_fixtures
from cvtk.intersect import build_intersection_report, intersection_loci, x_squared_at
from cvtk.knotgrp import (
    family_words,
    mat_trace,
    numeric_rep,
    relator_check,
    standard_relator,
    word_eval,
)
from cvtk.ratpoly import UniPoly, poly_gcd
from cvtk.trace import (
    TraceContext,
    alexander_poly,
    delta,
    gamma_closed,
    reducible_character,
)
from cvtk.variety import (
    bezout_budget,
    d_split,
    meridian_derivative_at_two,
    x_variety_poly,
)
from golden_json import fixtures_to_json
from roots import complex_roots

U = UniPoly.gen("u")


def test_criterion_01_chebyshev_identity_suite():
    start = time.monotonic()
    assert failed_identities(60) == []
    assert time.monotonic() - start < 5.0


def test_criterion_02_g_polynomials_exact():
    assert G_poly(2) == U ** 2 - 2 * U + 2
    assert G_poly(3) == U ** 4 - 2 * U ** 3 + 3
    assert (1 + 1j) ** 2 - 2 * (1 + 1j) + 2 == 0
    assert (1 - 1j) ** 2 - 2 * (1 - 1j) + 2 == 0


def test_criterion_03_variety_fixtures_exact():
    fx = default_fixtures()
    for n in (2, 3):
        product = (fx[n].X0 * fx[n].X1).primitive()
        assert x_variety_poly(n).primitive() == product


def test_criterion_04_smooth_model_split():
    for n in range(2, 21):
        pair = d_split(n)
        assert pair.quotient.total_degree() == 2 * n - 2
        assert pair.line * pair.quotient == pair.d_poly


def test_criterion_05_mod_two_congruence():
    for n in range(2, 61):
        diff = G_poly(n) - f_poly(n) * f_poly(n)
        assert all(c.denominator == 1 and c.numerator % 2 == 0 for c in diff.coeffs)


def test_criterion_06_meridian_non_integrality():
    start = time.monotonic()
    products = {}
    for n in range(2, 9):
        report = build_intersection_report(n)
        assert report.status == "ok"
        verdict = report.locus.meridian_verdict
        assert not verdict.is_algebraic_integer
        assert 2 in verdict.bad_primes
        products[n] = report.locus.x_min_poly
    assert products[2] == UniPoly([45, 0, -24, 0, 4], "x").monic()
    assert products[3] == UniPoly([6125, 0, -8400, 0, 5160, 0, -1424, 0, 144], "x").monic()
    assert time.monotonic() - start < 30.0


def test_criterion_07_longitude_integrality():
    start = time.monotonic()
    frozen = {
        2: UniPoly([772, -28, 1], "l"),
        3: UniPoly([8647328, -385360, 15768, -212, 1], "l"),
    }
    for n in range(2, 9):
        report = build_intersection_report(n)
        assert report.locus.longitude_verdict.is_algebraic_integer
        poly = report.locus.longitude_min_poly
        assert poly.lc == 1
        assert all(c.denominator == 1 for c in poly.coeffs)
        if n in frozen:
            assert poly == frozen[n]
    assert time.monotonic() - start < 60.0


def test_criterion_08_slope_verdict():
    for n in range(2, 9):
        slope = build_intersection_report(n).slope
        assert not slope.meridian_integral
        assert slope.longitude_integral
        assert slope.detected_slope == 0
        assert slope.surface_description == "genus 1 Seifert surface"


def test_criterion_09_bezout_budgets():
    expected = {2: (20, 4, 16), 3: (84, 8, 76)}
    for n, counts in expected.items():
        budget = bezout_budget(n, default_fixtures())
        assert (budget.total, budget.affine, budget.ideal) == counts
        assert squarefree_part(budget.r_eliminant) == UniPoly(
            G_poly(n).coeffs, "r"
        ).monic()
        for elim in (budget.r_eliminant, budget.x_eliminant):
            sqf = squarefree_part(elim)
            assert poly_gcd(sqf, sqf.derivative()).degree == 0
        assert poly_gcd(
            budget.x_eliminant, budget.x_eliminant.derivative()
        ).degree == 0


def test_criterion_10_delta_gamma_equivalence():
    for n in range(2, 7):
        for locus in intersection_loci(n):
            ctx = TraceContext(n, locus.r_elem, x_squared_at(locus))
            for d in range(n + 1):
                for e in range(n + 1):
                    assert delta(d, e, ctx) == gamma_closed(d, e, ctx)


def test_criterion_11_numeric_representation():
    locus = intersection_loci(2)[0]
    roots = complex_roots(locus.modulus)
    r0 = roots[0]
    assert abs(r0 - (1 - 1j)) < 1e-12
    x0 = cmath.sqrt(2 + r0 - 1 / (r0 * r0))
    rep = numeric_rep(2, r0, x0)
    fam = family_words(2)
    assert relator_check(rep, fam.relator)[0] < 1e-9
    tau = mat_trace(word_eval(rep, fam.longitude))
    assert abs(tau - (14 + 24j)) < 1e-9
    for n, (p, q) in ((2, (15, 11)), (3, (35, 29))):
        rel = standard_relator(p, q)
        fn = f_poly(n).coeffs
        for locus_n in intersection_loci(n):
            for rr in complex_roots(locus_n.modulus):
                value = sum(complex(c) * rr ** k for k, c in enumerate(fn))
                xx = cmath.sqrt(2 + rr - 1 / (value * value))
                rep_n = numeric_rep(n, rr, xx)
                assert relator_check(rep_n, rel)[0] < 1e-9


def test_criterion_12_reducible_characters():
    x = UniPoly.gen("x")
    for n in range(2, 13):
        red = reducible_character(n)
        assert red.x_squared == Fraction(4 * n * n - 1, n * n)
        assert (red.s1_trace, red.s2_trace, red.s1s2inv_trace) == (2, 2, 2)
        # F is even in x: its even rows, at X = x^2, give F(2, x) in X
        rows = x_variety_poly(n).rows[::2]
        assert sum(row(2) * red.x_squared ** k for k, row in enumerate(rows)) == 0
        assert meridian_derivative_at_two(n) == -2 * n * n * x
    assert reducible_character(2).x_squared == Fraction(15, 4)


def test_criterion_13_alexander_data():
    for n in range(2, 21):
        poly, disc = alexander_poly(n)
        assert poly == UniPoly([n * n, 1 - 2 * n * n, n * n], "t")
        assert disc == 1 - 4 * n * n < 0
        assert poly(Fraction(1)) == 1


def test_criterion_14_negative_control(tmp_path, capsys):
    obj = fixtures_to_json(default_fixtures())
    obj["2"]["x_poly"]["coeffs"][2] = "-23"
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["verify-paper", "--fixtures", str(path)]) == 1
    out = capsys.readouterr().out
    fail_names = {
        line.split()[1] for line in out.splitlines() if line.startswith("FAIL")
    }
    assert "meridian-n2-exact" in fail_names


def test_criterion_15_detect_n20_budget():
    for n in (20, 48):
        start = time.monotonic()
        report = build_intersection_report(n)
        assert report.status == "ok"
        assert report.slope.detected_slope == 0
        assert time.monotonic() - start < 15.0, n


def test_criterion_16_intersect_n16_budget(capsys):
    start = time.monotonic()
    assert main(["intersect", "--n", "16"]) == 0
    assert time.monotonic() - start < 5.0
    out = capsys.readouterr().out
    assert json.loads(out)["status"] == "ok"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "29eceb86d46cb94c8913cdb7722c50626d570a26e2c5bb6fb3000d73d2648507"
    )


def test_criterion_17_intersect_n32(capsys):
    start = time.monotonic()
    assert main(["intersect", "--n", "32"]) == 0
    assert time.monotonic() - start < 15.0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f3d26b6cdee13718ee45af09b85c8c82a6bab2dad9de38f6082b71a63628b4b1"
    )
    obj = json.loads(out)
    assert obj["status"] == "ok"
    for locus in obj["loci"]:
        approx = locus["approx"]
        assert len(approx["x_roots"]) == 2 * locus["degree"]
        longitude_degree = len(locus["longitude"]["min_poly"]["coeffs"]) - 1
        assert len(approx["longitude_roots"]) == longitude_degree


def test_criterion_18_x_model_n16_budget(capsys):
    start = time.monotonic()
    assert main(["variety", "--n", "16", "--model", "X"]) == 0
    assert time.monotonic() - start < 3.0
    assert capsys.readouterr().out.startswith("r^")


def test_criterion_19_detect_n64_budget():
    start = time.monotonic()
    report = build_intersection_report(64)
    assert report.status == "ok"
    assert report.slope.detected_slope == 0
    assert time.monotonic() - start < 6.0


def test_criterion_20_intersect_n48(capsys):
    """intersect --n 48 exits 0 within 8 s and prints the output recorded once
    from the mpmath path this root finder replaced (polyroots, then the exact
    elements evaluated at the roots in mpmath), run at 120 digits in place of
    its 40. At 40 digits that path printed 56 of the 188 x strings and 28 of
    the 94 longitude strings wrong from about the 7th digit: Horner cancels
    about 140 bits at |r0| near 2."""
    start = time.monotonic()
    assert main(["intersect", "--n", "48"]) == 0
    assert time.monotonic() - start < 8.0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f323ddad3c98e7978ca4f5348f4c4051531eff832e118127de1f885d2b92cb3f"
    )


def test_criterion_22_intersect_n64(capsys):
    """intersect --n 64 exits 0 within 4 s and prints the output recorded
    while G_n was seeded by the generic float seeds, which paired no roots
    at this n; that path also ran within this budget."""
    start = time.monotonic()
    assert main(["intersect", "--n", "64"]) == 0
    assert time.monotonic() - start < 4.0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "bcd39b8432de628a2ec616cfa248400a5850f7a1fd62a3bc06bea0b1b1e80370"
    )


def test_criterion_21_detect_n128_budget(capsys):
    start = time.monotonic()
    assert main(["detect", "--n", "128", "--json"]) == 0
    assert time.monotonic() - start < 15.0
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "ok" and obj["slope"]["detected_slope"] == 0
