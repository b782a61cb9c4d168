"""Tests for free words, two-bridge presentations, and numeric SL2 checks.

The numeric layer is the independent oracle for the trace formulas: at
isolated intersection points the group relator must evaluate to the identity
and the longitude matrix trace must reproduce the frozen minimal polynomials.
"""

import cmath
import random
from fractions import Fraction
from math import prod

import mpmath
import pytest

from cvtk import knotgrp
from cvtk.cheb import f_poly
from cvtk.cli import complex_str, main
from cvtk.golden import default_fixtures
from cvtk.intersect import build_intersection_report, intersection_loci
from cvtk.knotgrp import (
    MAT_ID,
    FreeWord,
    NumericRep,
    RootApproximations,
    _fixed,
    _reduce,
    _sqrt_fixed,
    family_words,
    mat_det,
    mat_diff_norm,
    mat_trace,
    mu_from_x,
    numeric_rep,
    relation_residual,
    relator_check,
    sorted_complex,
    standard_relator,
    two_bridge_word,
    word_eval,
)
from cvtk.ratpoly import ExactArithError, UniPoly, poly_gcd
from roots import circle_seeds, complex_roots, generic_seeds

TOL = 1e-9


def _brute_reduce(s):
    pairs = ("aA", "Aa", "bB", "Bb")
    changed = True
    while changed:
        changed = False
        for p in pairs:
            if p in s:
                s = s.replace(p, "", 1)
                changed = True
                break
    return s


def _exponent_sum(word, generator):
    """Exponent sum of one generator ('a' or 'b') in a word."""
    return word.letters.count(generator) - word.letters.count(generator.upper())


def _loci_points(n):
    """Numeric (r0, x0) samples: every modulus root paired with one x branch."""
    pts = []
    for locus in intersection_loci(n):
        fn_coeffs = f_poly(n).coeffs
        for r0 in complex_roots(locus.modulus):
            fn = sum(complex(c) * r0 ** k for k, c in enumerate(fn_coeffs))
            x0 = cmath.sqrt(2 + r0 - 1 / (fn * fn))
            pts.append((r0, x0))
    return pts


# ---------------------------------------------------------------------------
# Words.


def test_two_bridge_word_examples():
    assert str(two_bridge_word(3, 1)) == "ab"
    assert str(two_bridge_word(5, 3)) == "aBAb"
    assert len(two_bridge_word(15, 11)) == 14
    assert len(two_bridge_word(35, 29)) == 34


def test_family_words_examples():
    fam2 = family_words(2)
    assert str(fam2.w) == "aBaBAbAb"
    assert str(fam2.s2) == "aBaB"
    fam3 = family_words(3)
    assert len(fam3.w) == 12
    assert str(fam3.w) == "aBaBaBAbAbAb"
    assert str(fam3.s1) == str(fam3.w ** 3)


def test_relator_shape():
    for n in (2, 3, 4):
        fam = family_words(n)
        wn = fam.w ** n
        assert fam.relator == FreeWord("a") * wn * FreeWord("B") * wn.inverse()
        assert _exponent_sum(fam.relator, "a") == 1
        assert _exponent_sum(fam.relator, "b") == -1
        assert _exponent_sum(fam.w, "a") == 0
        assert _exponent_sum(fam.w, "b") == 0
        assert _exponent_sum(fam.longitude, "a") + _exponent_sum(fam.longitude, "b") == 0


def test_free_reduction_matches_brute_force():
    rng = random.Random(20240517)
    letters = "aAbB"
    for _ in range(300):
        s = "".join(rng.choice(letters) for _ in range(rng.randrange(21)))
        assert FreeWord(s).letters == _brute_reduce(s)


def test_free_word_products_match_brute_force():
    """Products, powers and inverses of reduced words reduce only once, when
    they are built, yet equal the brute-force reduction of the
    concatenation, full cancellation included.  A product cancels only at
    the junction; a right factor that starts with part of the left factor's
    inverse makes that cancellation run deep."""
    rng = random.Random(20261019)
    words = [FreeWord("".join(rng.choice("aAbB") for _ in range(rng.randrange(13))))
             for _ in range(60)]
    for u, v in zip(words, words[1:] + words[:1]):
        assert (u * v).letters == _brute_reduce(u.letters + v.letters)
        deep = FreeWord(u.inverse().letters[:rng.randrange(len(u) + 1)] + v.letters)
        assert (u * deep).letters == _reduce(u.letters + deep.letters)
        assert (deep * u).letters == _reduce(deep.letters + u.letters)
        assert (u * u.inverse()).letters == _brute_reduce(u.letters + u.inverse().letters) == ""
        assert (u * v * v.inverse() * u.inverse()).letters == ""
        assert u.inverse().letters == _brute_reduce(u.letters[::-1].swapcase())
        for k in (-3, -1, 0, 2, 5):
            base = u.letters if k >= 0 else u.inverse().letters
            assert (u ** k).letters == _brute_reduce(base * abs(k))


def test_free_word_algebra():
    w = FreeWord("aB")
    assert w * w.inverse() == FreeWord("")
    assert str(w * w.inverse()) == "1"
    assert w ** -2 == (w.inverse()) ** 2
    assert w ** 0 == FreeWord("")
    assert FreeWord("abBA") == FreeWord("")
    assert FreeWord(w) == w
    assert len({FreeWord("aB"), FreeWord("aB"), FreeWord("Ab")}) == 2


def test_word_validation():
    with pytest.raises(ValueError):
        FreeWord("xyz")
    with pytest.raises(ValueError):
        two_bridge_word(4, 1)
    with pytest.raises(ValueError):
        two_bridge_word(3, 3)
    with pytest.raises(ValueError):
        two_bridge_word(9, 3)
    with pytest.raises(ValueError):
        two_bridge_word(15.0, 11)
    with pytest.raises(ValueError):
        family_words(1)


# ---------------------------------------------------------------------------
# Numeric representations.


def _rep_with_mu(n, mu, r):
    """The representation at the eigenvalue mu itself, on either branch."""
    return NumericRep(n=n, mu=mu, r=r, A=((mu, 1 + 0j), (0j, 1 / mu)),
                      B=((mu, 0j), (2 - r, 1 / mu)))


def test_numeric_rep_validation():
    mu = 0.5 + 0.25j
    rep = numeric_rep(2, 1 + 1j, mu + 1 / mu)
    assert abs(rep.mu * mu - 1) < 1e-12  # the branch with |mu| >= 1
    assert rep.letters is rep.letters
    assert abs(mat_det(rep.A) - 1) < 1e-12
    assert abs(mat_det(rep.B) - 1) < 1e-12
    ABinv = word_eval(rep, FreeWord("aB"))
    assert abs(mat_trace(ABinv) - rep.r) < 1e-12


def test_mu_branches():
    for x in (1.7 + 0.4j, -2.3 + 0j, 0.1 - 3j):
        hi = mu_from_x(x)
        lo = 1 / mu_from_x(x)
        assert abs(hi * lo - 1) < 1e-12
        assert abs(hi + 1 / hi - x) < 1e-12
        assert abs(lo + 1 / lo - x) < 1e-12


def test_mu_stays_off_cancellation():
    """Where Re x < 0, the principal root of x^2 - 4 cancels x; the branch
    with |mu| >= 1 does not, so mu + 1/mu still gives x back."""
    for x in (-1e9, -1e9j, -1e9 - 1e9j, -3 + 0j, -2.5j):
        mu = mu_from_x(x)
        assert abs(mu) >= 1
        assert abs(mu + 1 / mu - x) <= 1e-12 * abs(x)


def test_non_finite_points_are_usage_errors():
    """A non-finite r or x, or an x whose square overflows, is the caller's
    ValueError; a finite x never gives a zero mu."""
    inf, nan = float("inf"), float("nan")
    for r, x in ((inf, 1.0), (complex(1, nan), 1.0), (1, nan), (1, -inf), (1, complex(1, inf)),
                 (1, 1e155j), (1, 1e200)):
        with pytest.raises(ValueError, match="must be finite"):
            numeric_rep(2, r, x)
    rep = numeric_rep(2, 1, 1e150)
    assert abs(rep.mu - 1e150) <= 1e138 and abs(mat_det(rep.A) - 1) < 1e-12


def test_complex_roots_sorted_and_complete():
    p = UniPoly([45, 0, -24, 0, 4], "x")
    roots = complex_roots(p)
    assert len(roots) == 4
    keys = [(round(z.real, 12), round(z.imag, 12)) for z in roots]
    assert keys == sorted(keys)
    for z in roots:
        val = sum(complex(c) * z ** k for k, c in enumerate(p.coeffs))
        assert abs(val) < 1e-9
    with pytest.raises(ExactArithError, match="nonconstant"):
        RootApproximations(UniPoly([3], "x"), (), [])


def _unseeded_root_strs(p):
    """The 12-digit roots from mpmath's own Durand-Kerner starting points."""
    coeffs = list(reversed(p.primitive().num))
    with mpmath.workdps(40):
        roots = [complex(z) for z in mpmath.polyroots(coeffs, maxsteps=200, extraprec=120)]
    roots.sort(key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    return [complex_str(z) for z in roots]


def _random_squarefree(rng, even):
    while True:
        h = UniPoly([rng.randint(-20, 20) for _ in range(rng.randint(2, 9))], "x")
        if h.degree < 1:
            continue
        p = UniPoly([c for a in h.coeffs for c in (a, 0)][:-1], "x") if even else h
        if poly_gcd(p, p.derivative()).degree == 0:
            return p


def test_complex_roots_match_unseeded_polyroots():
    polys = []
    for n in range(2, 9):
        locus = build_intersection_report(n).locus
        polys.extend([locus.modulus, locus.x_min_poly, locus.longitude_min_poly])
    rng = random.Random(20161)
    polys.extend(_random_squarefree(rng, even=k % 2 == 0) for k in range(100))
    assert sum(p.degree % 2 == 0 and not any(p.coeffs[1::2]) for p in polys) >= 50
    for p in polys:
        assert [complex_str(z) for z in complex_roots(p)] == _unseeded_root_strs(p), p


def test_complex_roots_of_even_polynomials_stay_on_the_axes():
    imaginary = [complex_str(z) for z in complex_roots(UniPoly([1, 0, 3, 0, 1], "x"))]
    assert len(imaginary) == 4 and all(s.startswith("0 ") for s in imaginary)
    real = [complex_str(z) for z in complex_roots(UniPoly([1, 0, -10, 0, 1], "x"))]
    assert len(real) == 4 and all(s.endswith(" + 0i") for s in real)
    assert imaginary == _unseeded_root_strs(UniPoly([1, 0, 3, 0, 1], "x"))
    assert real == _unseeded_root_strs(UniPoly([1, 0, -10, 0, 1], "x"))


def test_complex_roots_from_the_cauchy_circle():
    """Seeds on the Cauchy-bound circle, far from the roots, reach the same
    certified roots as the Aberth seeds."""
    polys = [locus.modulus for n in range(2, 7) for locus in intersection_loci(n)]
    polys.append(UniPoly([45, 0, -24, 0, 4], "x"))
    for p in polys:
        seeds = circle_seeds(list(reversed(p.primitive().num)))
        got = sorted_complex(RootApproximations(p, (), seeds).roots)
        assert [complex_str(z) for z in got] == [complex_str(z) for z in complex_roots(p)], p


def test_inclusion_radii_are_weierstrass_bounds():
    """Approximations of the roots 1..6 of prod (x - k), each moved off its
    root by a few 2^-150: every disc radius is at least the Weierstrass bound
    d |p(z_i)| / |lc prod_{j != i} (z_i - z_j)|, worked out in mpmath, and the
    disc holds its root."""
    p = prod((UniPoly([-k, 1], "x") for k in range(1, 7)), start=UniPoly.const(1, "x"))
    approx = RootApproximations(p, (), generic_seeds(p))
    bits, d = approx.bits, p.degree
    step = 1 << (bits - 150)
    approx.points = [(re + (i + 1) * step, im - step) for i, (re, im) in enumerate(approx.points)]
    assert approx._certify() is None
    with mpmath.workdps(80):
        zs = [mpmath.mpc(mpmath.ldexp(re, -bits), mpmath.ldexp(im, -bits))
              for re, im in approx.points]
        for i, (z, radius) in enumerate(zip(zs, approx.radii)):
            others = mpmath.fprod(z - y for j, y in enumerate(zs) if j != i)
            value = mpmath.fprod(z - k for k in range(1, 7))
            assert radius >= d * abs(value / others)
            assert abs(z - mpmath.nint(z.real)) <= radius


def _certified_strs(p, elements, seeds=None):
    """The 12-digit roots and images of one RootApproximations, from the
    given seeds or else `generic_seeds`, in `complex_roots` order, after
    checking its discs pairwise disjoint."""
    approx = RootApproximations(p, elements, generic_seeds(p) if seeds is None else seeds)
    scale, pts, radii = 1 << approx.bits, approx.points, approx.radii
    for i in range(len(pts)):
        for j in range(i):
            gap = abs(complex(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1]) / scale)
            assert gap > radii[i] + radii[j], (p, i, j)
    rows = zip(approx.roots, *approx.images)
    rows = sorted(rows, key=lambda row: (round(row[0].real, 12), round(row[0].imag, 12)))
    return approx.pairs, [[complex_str(v) for v in row] for row in rows]


def _g_n_case(n):
    """G_n with the (num, den, sqrt) triples of x0 and tau0 at its roots."""
    locus = build_intersection_report(n).locus
    x2, tau = locus.x_squared, locus.longitude_elem
    return locus.modulus, ((x2.num, x2.den, True), (tau.num, tau.den, False))


def test_paired_roots_match_unpaired_roots(monkeypatch):
    """Refining one root of each conjugate pair gives the 12-digit roots and
    images of the unpaired run, on G_n (n = 2..24) with x0 and tau0, and on
    real polynomials that mix real roots and conjugate pairs, of odd and even
    degree, with x^2 (-1 at +-i, on the branch cut of the square root) and
    x - 5 (negative at each real root) under square roots.  The seeds from
    the z-form of G_n pair up, n = 2..24 and n = 32 (where the generic seeds
    do not), and certify the same strings as the generic ones."""
    x = UniPoly.gen("x")
    cases = [_g_n_case(n) for n in range(2, 25)]
    real = [
        (x - 2) * (x ** 2 + 1) * (x ** 2 - 3),
        (x ** 2 - 2) * (x ** 2 + 1) * (x ** 2 + 2 * x + 5),
        (x ** 3 - 2) * (x ** 2 + x + 1) * (x + 1),
        (x ** 4 - 10 * x ** 2 + 1) * (x ** 2 + 3) * (x ** 2 - 4 * x + 13),
    ]
    elements = (((0, 0, 1), 1, True), ((-5, 1), 1, True), ((1, 2, 0, 3), 7, False))
    cases.extend((p, elements) for p in real)
    paired = [_certified_strs(p, el) for p, el in cases]
    assert all(pairs for pairs, _ in paired)
    assert all(2 * len(pairs) < p.degree for (pairs, _), (p, _) in zip(paired[-4:], cases[-4:]))
    z_seeded = [(n, p, el, strs) for n, (p, el), (_, strs) in zip(range(2, 25), cases, paired)]
    p, el = _g_n_case(32)
    z_seeded.append((32, p, el, _certified_strs(p, el)[1]))
    for n, p, el, strs in z_seeded:
        z_pairs, z_strs = _certified_strs(p, el, knotgrp._zform_seeds(n))
        assert len(z_pairs) == n - 1 and z_strs == strs, n
    monkeypatch.setattr(knotgrp, "_conjugate_pairs", lambda seeds: ())
    for (p, el), (_, strs) in zip(cases, paired):
        assert _certified_strs(p, el) == ((), strs), p


def test_zform_seeds_pair_up():
    """Every z-form seed of G_n falls into one of n - 1 conjugate pairs,
    n = 2..48 and 64."""
    for n in [*range(2, 49), 64]:
        seeds = knotgrp._zform_seeds(n)
        assert len(seeds) == 2 * n - 2
        assert len(knotgrp._conjugate_pairs(seeds)) == n - 1, n


def test_zform_seeded_g64_stays_paired():
    """At n = 64 the z-form seeds certify G_n and both images on the paired
    run: no unpaired retry, no precision doubling, at most 10 sweeps."""
    p, elements = _g_n_case(64)
    approx = RootApproximations(p, elements, knotgrp._zform_seeds(64))
    assert len(approx.pairs) == 63
    assert approx._doublings == 0
    assert approx._sweeps <= 10


def test_moved_seeds_certify_the_same_roots():
    """Seeds only start the iteration: the z-form seeds of G_12 in another
    order, or each moved off its conjugate by up to 1e-3, certify the same
    12-digit roots and images as the generic seeds."""
    p, elements = _g_n_case(12)
    _, strs = _certified_strs(p, elements)
    seeds = knotgrp._zform_seeds(12)
    rng = random.Random(12)
    moved = [z + complex(rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3)) for z in seeds]
    for variant in (seeds[5:] + seeds[:5], moved):
        assert _certified_strs(p, elements, variant)[1] == strs


def test_seed_count_must_match_the_degree():
    p = UniPoly([2, -2, 1], "x")
    for seeds in ([1 + 1j], [1 + 1j, 1 - 1j, 0j]):
        with pytest.raises(ExactArithError, match="root seeds given for a degree-2"):
            RootApproximations(p, (), seeds)


def test_fixed_square_roots_take_mpmath_branches():
    """The principal square root with mpmath's conventions: +i sqrt(-a) on
    the negative real axis, and the sign of the imaginary part kept."""
    bits = 80
    with mpmath.workdps(40):
        for v in (4, -4, 0, 2 - 3j, -2 + 3j, -2 - 3j, 1e-9j - 5, -1e-9j - 5, 0.25j):
            v = complex(v)
            re, im = _sqrt_fixed(_fixed(v.real, bits), _fixed(v.imag, bits), bits)
            got = mpmath.mpc(mpmath.ldexp(re, -bits), mpmath.ldexp(im, -bits))
            assert mpmath.almosteq(got, mpmath.sqrt(mpmath.mpc(v)), 2.0 ** -70, 2.0 ** -70), v
            if v.imag == 0:
                assert re == 0 or im == 0


def test_family_relator_holds_at_loci():
    for n in range(2, 6):
        fam = family_words(n)
        for r0, x0 in _loci_points(n):
            for rep in (numeric_rep(n, r0, x0), _rep_with_mu(n, 1 / mu_from_x(x0), r0)):
                assert relator_check(rep, fam.relator)[0] < TOL


def test_family_relator_holds_on_components():
    """Random points of each golden component satisfy the group relation.

    Evaluated at 60 decimal digits: the relator is a long word, so double
    precision would amplify root error well above any honest tolerance."""
    import mpmath

    rng = random.Random(7401)
    fx = default_fixtures()
    with mpmath.workdps(60):
        for n in (2, 3):
            fam = family_words(n)
            for comp in (fx[n].X0, fx[n].X1):
                for _ in range(3):
                    r0 = Fraction(rng.randrange(-40, 41), 10) + Fraction(1, 7)
                    slice_poly = UniPoly([row(r0) for row in comp.rows], "x")
                    coeffs = list(reversed(slice_poly.primitive().num))
                    r_mp = mpmath.mpf(r0.numerator) / r0.denominator
                    for x0 in mpmath.polyroots(coeffs, maxsteps=300, extraprec=240):
                        mu = (x0 + mpmath.sqrt(x0 * x0 - 4)) / 2
                        A = ((mu, mpmath.mpc(1)), (mpmath.mpc(0), 1 / mu))
                        B = ((mu, mpmath.mpc(0)), (2 - r_mp, 1 / mu))
                        rep = NumericRep(n=n, mu=mu, r=r_mp, A=A, B=B)
                        assert relator_check(rep, fam.relator)[0] < mpmath.mpf("1e-40")


def test_standard_relator_at_loci():
    """The (4n^2-1, 4n^2-2n-1) two-bridge relator vanishes at the points."""
    for n, (p, q) in ((2, (15, 11)), (3, (35, 29))):
        assert family_words(n).two_bridge == (p, q)
        rel = standard_relator(p, q)
        V = two_bridge_word(p, q)
        for r0, x0 in _loci_points(n):
            rep = numeric_rep(n, r0, x0)
            assert relator_check(rep, rel)[0] < TOL
            assert (
                relation_residual(rep, V * FreeWord("a"), FreeWord("b") * V) < TOL
            )


def test_seifert_generator_traces_at_loci():
    """tr(s1) and tr(s2) both equal r f_n(r) - 2 f_{n-1}(r) at the points."""
    for n in range(2, 6):
        fam = family_words(n)
        fn = f_poly(n).coeffs
        fn1 = f_poly(n - 1).coeffs
        for r0, x0 in _loci_points(n):
            rep = numeric_rep(n, r0, x0)
            sigma = r0 * sum(
                complex(c) * r0 ** k for k, c in enumerate(fn)
            ) - 2 * sum(complex(c) * r0 ** k for k, c in enumerate(fn1))
            assert abs(mat_trace(word_eval(rep, fam.s1)) - sigma) < TOL
            assert abs(mat_trace(word_eval(rep, fam.s2)) - sigma) < TOL


def test_longitude_trace_numeric_n2():
    """tau = 38 - 24 r on the n = 2 locus, so r0 = 1 - i carries 14 + 24i."""
    fam = family_words(2)
    for r0, x0 in _loci_points(2):
        rep = numeric_rep(2, r0, x0)
        tau = mat_trace(word_eval(rep, fam.longitude))
        assert abs(tau - (38 - 24 * r0)) < 1e-6
        if r0.imag < 0:
            assert abs(tau - (14 + 24j)) < 1e-6


def test_longitude_traces_match_frozen_min_poly():
    fx = default_fixtures()
    for n in (2, 3):
        fam = family_words(n)
        traces = []
        for r0, x0 in _loci_points(n):
            rep = numeric_rep(n, r0, x0)
            traces.append(mat_trace(word_eval(rep, fam.longitude)))
        expected = complex_roots(fx[n].longitude_min_poly)
        got = sorted(traces, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        assert len(got) == len(expected)
        for u, v in zip(got, expected):
            assert abs(u - v) < 1e-6
        if n == 3:
            assert any(abs(z - (95.24695 + 42.47546j)) < 1e-4 for z in traces)


def _parse_complex(s):
    """Inverse of `complex_str`: 'a + bi' or 'a - bi' as a complex."""
    real, sign, imag = s.split()
    return complex(float(real), float(sign + imag[:-1]))


def test_rep_command_at_every_point(capsys):
    """`cvtk rep` exits 0 at every root for n = 2..6, prints the r0 and x0
    that the float formula of `_loci_points` gives at that point, and prints
    both relator residuals as verdicts below RELATOR_TOL."""
    for n in range(2, 7):
        p = 4 * n * n - 1
        verdicts = [
            "family relator residual < 1e-09: yes",
            f"two-bridge ({p}, {p - 2 * n}) relator residual < 1e-09: yes",
        ]
        expected = _loci_points(n)
        assert len(expected) == 2 * n - 2
        for ri, (r0, x0) in enumerate(expected):
            assert main(["rep", "--n", str(n), "--root", str(ri)]) == 0
            out = capsys.readouterr().out.splitlines()
            assert out[0] == f"n: {n}  locus: 0  root: {ri}"
            printed = dict(line.split(" ~ ") for line in out if " ~ " in line)
            assert abs(_parse_complex(printed["r0"]) - r0) < 1e-9
            assert abs(_parse_complex(printed["x0"]) - x0) < 1e-9
            assert [line for line in out if "residual" in line] == verdicts


def test_relator_tolerance_scales_with_the_word(monkeypatch):
    """The tolerance is the floor on short words and grows with the word:
    400 copies of the n = 4 family relator (50,402 letters once reduced,
    longer than the n = 64 relator) get a tolerance above the 1e-9 floor
    that their residual stays below, while r0 moved by 1e-3 still fails on
    the one relator and on the long word.  The residual is the one that
    `word_eval` gives: both come from one product."""
    n = 4
    fam = family_words(n)
    r0, x0, _ = build_intersection_report(n).locus.points[0]
    rep = numeric_rep(n, r0, x0)
    word = fam.relator ** 400
    monkeypatch.setattr(knotgrp, "RELATOR_TOL", 0.0)  # the raw rounding scale
    short = relator_check(rep, fam.relator)[1]
    monkeypatch.undo()
    assert short < 1e-11 and relator_check(rep, fam.relator)[1] == 1e-9
    res, tol = relator_check(rep, word)
    # the copies' partial products repeat, so only the length moves the scale
    assert tol == pytest.approx(len(word) / len(fam.relator) * short, rel=1e-9)
    assert tol > 1e-9 and res < tol
    assert res == mat_diff_norm(word_eval(rep, word), MAT_ID)
    bad = numeric_rep(n, r0 + 1e-3, x0)
    for w in (fam.relator, word):
        res, tol = relator_check(bad, w)
        assert res >= tol


def test_rep_prints_the_tolerance_it_applied(monkeypatch, capsys):
    from cvtk import cli

    good = cli.relator_check
    monkeypatch.setattr(cli, "relator_check", lambda rep, word: (good(rep, word)[0], 2.5e-9))
    assert main(["rep", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "family relator residual < 2.5e-09: yes" in out
    monkeypatch.setattr(cli, "relator_check", lambda rep, word: (good(rep, word)[0], 0.0))
    assert main(["rep", "--n", "2"]) == 1
    assert "family relator residual < 0: no" in capsys.readouterr().out


def test_longitude_is_identity_off_word_evaluation_sanity():
    mu = 1.25 + 0.5j
    rep = numeric_rep(2, 0.75 - 0.25j, mu + 1 / mu)
    assert relator_check(rep, FreeWord("")) == (0, knotgrp.RELATOR_TOL)
    prod = word_eval(rep, FreeWord("aA"))
    assert prod == MAT_ID
