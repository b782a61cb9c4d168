import math
import random
import time
from fractions import Fraction

import pytest

from cvtk import factor
from cvtk.cheb import G_poly
from cvtk.factor import musser_certificate, squarefree_part
from cvtk.intersect import intersection_loci, x_squared_at
from cvtk.numfield import nf_minimal_polynomial
from cvtk.ratpoly import (
    _GFB_PRIMES,
    ExactArithError,
    UniPoly,
    _gfb,
    _gfb_deriv,
    _gfb_gcd,
    _gfb_monic,
)


def P(*coeffs, var="u"):
    return UniPoly(coeffs, var)


U = UniPoly.gen("u")


def rand_poly(rng, deg):
    return UniPoly([rng.randint(-8, 8) for _ in range(deg)] + [rng.randint(1, 6)])


# -- independent oracles: subset sums, and sympy ---------------------------------


def subset_sums(pattern):
    sums = {0}
    for d in pattern:
        sums |= {s + d for s in sums}
    return sums


def degree_set(cert, k=None):
    """Degrees a factor over Q could still have after the first k primes of
    the certificate, recomputed from its patterns as Python sets."""
    out = set(range(cert.degree + 1))
    for pattern in cert.patterns[:k]:
        out &= subset_sums(pattern)
    return out


def sympy_poly(p):
    sympy = pytest.importorskip("sympy")
    u = sympy.Symbol("u")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * u ** k
               for k, c in enumerate(p.coeffs))
    return sympy.Poly(expr, u)


def sympy_irreducible(p):
    return sympy_poly(p).is_irreducible


def sympy_factor_degrees(p):
    """Degrees of the irreducible factors of p over Q, with multiplicity."""
    _, parts = sympy_poly(p).factor_list()
    return sorted(f.degree() for f, mult in parts for _ in range(mult))


def sympy_pattern(fz, p):
    """Degrees of the irreducible factors of fz mod p, ascending, from
    galoistools' gf_ddf_zassenhaus; None when p divides the leading
    coefficient or fz mod p is not squarefree."""
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    f = gt.gf_from_int_poly([ZZ(c) for c in reversed(fz)], p)
    if fz[-1] % p == 0 or not gt.gf_sqf_p(f, p, ZZ):
        return None
    f = gt.gf_monic(f, p, ZZ)[1]
    return tuple(sorted(d for g, d in gt.gf_ddf_zassenhaus(f, p, ZZ)
                        for _ in range(gt.gf_degree(g) // d)))


def assert_certificate_agrees_with_sympy(F):
    """Every usable prime up to the last one recorded is recorded, in order,
    with the pattern galoistools computes; the degree set recomputed from
    those patterns decides `holds`, and the primes stop at the first that
    makes it hold.  Returns the certificate."""
    cert = musser_certificate(F)
    fz = F.primitive().num
    assert cert.degree == F.degree
    last = cert.primes[-1] if cert.holds else _GFB_PRIMES[-1]
    want = [(p, pat) for p in _GFB_PRIMES if p <= last
            for pat in [sympy_pattern(fz, p)] if pat is not None]
    assert list(zip(cert.primes, cert.patterns)) == want
    assert cert.holds == (degree_set(cert) == {0, F.degree})
    if cert.holds:
        assert degree_set(cert, -1) != {0, F.degree}
    return cert


# -- squarefree ----------------------------------------------------------------


def test_squarefree_part_examples():
    p = (U - 1) ** 2 * (U ** 2 + 1)
    assert squarefree_part(p) == (U - 1) * (U ** 2 + 1)
    assert squarefree_part(U ** 2 - 2 * U + 2) == U ** 2 - 2 * U + 2
    assert squarefree_part(P(3)) == P(1)
    with pytest.raises(ExactArithError):
        squarefree_part(UniPoly.zero())


# -- Musser's certificate -----------------------------------------------------


def test_factor_examples():
    # u^2 - 1 = (u - 1)(u + 1) is never proven irreducible, whatever its
    # content; 2 is not usable for 2u^2 - 2's primitive form u^2 - 1 either
    for p in (U ** 2 - 1, 2 * U ** 2 - 2):
        cert = musser_certificate(p)
        assert not cert.holds
        assert cert.primes == _GFB_PRIMES[1:]
        assert set(cert.patterns) == {(1, 1)}

    # G_3 = u^4 - 2u^3 + 3: degrees 1 + 3 mod 5 and 4 mod 11 leave {0, 4}
    cert = musser_certificate(U ** 4 - 2 * U ** 3 + 3)
    assert cert == factor.MusserCertificate(4, (5, 11), ((1, 3), (4,)), True)

    # x^4 - 6x^2 + 45/4 (its quartic with cleared denominators has no
    # rational root and no integer quadratic split) is irreducible mod 7
    cert = musser_certificate(P(Fraction(45, 4), 0, -6, 0, 1))
    assert cert.holds and cert.primes == (7,) and cert.patterns == ((4,),)

    with pytest.raises(ExactArithError, match="degree-0"):
        musser_certificate(P(3))


def test_factor_cyclotomic_like():
    # u^4 + 1 is irreducible over Q but splits into quadratics mod every
    # prime, so no prime proves it: the certificate never disproves
    cert = assert_certificate_agrees_with_sympy(U ** 4 + 1)
    assert not cert.holds and set(cert.patterns) == {(1, 1, 1, 1), (2, 2)}
    assert sympy_irreducible(U ** 4 + 1)
    # u^6 - 1 = (u-1)(u+1)(u^2+u+1)(u^2-u+1): every degree up to 6 is left
    cert = assert_certificate_agrees_with_sympy(U ** 6 - 1)
    assert not cert.holds and degree_set(cert) == set(range(7))


def test_factor_reconstruction_random():
    """Random products of one to three random factors, each squared or not.
    A repeated factor leaves no prime squarefree, which raises.  For the
    squarefree part, the degree of every factor sympy finds survives in
    every prime's subset sums, so a product of two or more factors is never
    proven irreducible."""
    rng = random.Random(49)
    raised = unproven = 0
    for _ in range(30):
        p = P(rng.choice([1, 2, -3, Fraction(1, 2)]))
        for _ in range(rng.randint(1, 3)):
            p = p * rand_poly(rng, rng.randint(1, 4)) ** rng.randint(1, 2)
        if squarefree_part(p).degree < p.degree:
            with pytest.raises(ExactArithError, match="no usable prime"):
                musser_certificate(p)
            raised += 1
            p = squarefree_part(p)
        cert = musser_certificate(p)
        degrees = sympy_factor_degrees(p)
        for pattern in cert.patterns:
            assert set(degrees) <= subset_sums(pattern)
        if len(degrees) > 1:
            assert not cert.holds
            unproven += 1
    assert raised > 5 and unproven > 5


def test_factor_is_idempotent_on_irreducibles():
    """Where the certificate holds on a random polynomial, sympy agrees that
    it is irreducible, and the certificate of its monic form, of its
    negation and of a multiple by a constant is the same record."""
    rng = random.Random(50)
    count = 0
    for _ in range(80):
        p = rand_poly(rng, rng.randint(1, 6))
        cert = musser_certificate(p)
        if not cert.holds:
            continue
        assert sympy_irreducible(p)
        for q in (p.monic(), -p, Fraction(7, 3) * p):
            assert musser_certificate(q) == cert
        count += 1
    assert count > 40


def test_factor_deterministic():
    p = (U ** 2 - 2) * (U ** 2 - 3) * (U ** 2 + U + 1) * (U - 5)
    a = musser_certificate(p)
    assert musser_certificate(p) == a
    assert not a.holds
    assert a.primes == (5, 17, 19, 29, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83)
    assert a.patterns[:2] == ((1, 2, 2, 2), (1, 1, 1, 2, 2))
    assert degree_set(a) == set(range(8))


def test_factor_large_coeff_swinnerton_dyer_2():
    # min poly of sqrt(2)+sqrt(3): x^4 - 10x^2 + 1, irreducible, yet it splits
    # into factors of degree <= 2 mod every prime, so no prime proves it
    cert = assert_certificate_agrees_with_sympy(U ** 4 - 10 * U ** 2 + 1)
    assert not cert.holds and degree_set(cert) == {0, 2, 4}
    assert all(max(pattern) <= 2 for pattern in cert.patterns)


def test_factor_degree8_even_poly():
    # 144x^8 - 1424x^6 + 5160x^4 - 8400x^2 + 6125, the n = 3 meridian
    # polynomial: 4 + 4 mod 11 and 8 mod 13
    p = UniPoly([6125, 0, -8400, 0, 5160, 0, -1424, 0, 144], "x")
    cert = assert_certificate_agrees_with_sympy(p)
    assert cert.holds and cert.primes == (11, 13)
    assert sympy_irreducible(p)


def test_factor_agrees_with_sympy_on_family_polynomials():
    """The certificate proves G_n (n <= 12) and the meridian polynomial
    q = p(x^2) (n <= 6) irreducible, and sympy agrees."""
    polys = [G_poly(n) for n in range(2, 13)]
    for n in range(2, 7):
        for locus in intersection_loci(n):
            polys.append(nf_minimal_polynomial(x_squared_at(locus), "u").inflate(2))
    for p in polys:
        assert assert_certificate_agrees_with_sympy(p).holds
        assert sympy_irreducible(p)


def test_factor_agrees_with_sympy_on_random_products():
    """Seeded random products of three to six integer factors, some squared:
    never proven irreducible.  The squarefree ones record what galoistools
    computes; the others have no usable prime."""
    rng = random.Random(51)
    for _ in range(20):
        p = P(rng.choice([1, -2, Fraction(3, 5)]))
        for _ in range(rng.randint(3, 6)):
            p = p * rand_poly(rng, rng.randint(1, 3)) ** rng.randint(1, 2)
        if squarefree_part(p).degree < p.degree:
            with pytest.raises(ExactArithError, match="no usable prime"):
                musser_certificate(p)
        else:
            assert not assert_certificate_agrees_with_sympy(p).holds


def swinnerton_dyer(primes):
    """Minimal polynomial of the sum of sqrt(p), p in primes: degree 2**len.

    Irreducible over Q, yet it splits into factors of degree <= 2 modulo
    every prime.  Built as S(u) -> S(u + y) S(u - y) with y^2 = p, writing
    S(u + y) = A(u) + y B(u)."""
    s = U
    for p in primes:
        a, b = UniPoly.zero(), UniPoly.zero()
        for c in reversed(s.coeffs):
            a, b = a * U + p * b + c, a + b * U
        s = a * a - p * b * b
    return s


def test_factor_agrees_with_sympy_on_swinnerton_dyer():
    """Irreducible, by sympy, and never proven so: every pattern has parts of
    degree at most 2.  The product of two of them is not proven either."""
    sd = [swinnerton_dyer((2, 3, 5, 7)[:k]) for k in (2, 3, 4)]
    assert [p.degree for p in sd] == [4, 8, 16]
    for p in sd:
        assert sympy_irreducible(p)
        cert = assert_certificate_agrees_with_sympy(p)
        assert not cert.holds
        assert all(max(pattern) <= 2 for pattern in cert.patterns)
    assert not assert_certificate_agrees_with_sympy(sd[1] * swinnerton_dyer((2, 3, 7))).holds


@pytest.mark.parametrize("n", [9, 18, 19])
def test_meridian_irreducibility_needs_no_lifting(n):
    """q = p(x^2) at n = 9, 18 and 19 is proven irreducible by the
    certificate alone; n = 9 needs nine usable primes, up to 43."""
    (locus,) = intersection_loci(n)
    p = nf_minimal_polynomial(x_squared_at(locus), "x").inflate(2)
    assert p.degree == 4 * n - 4
    cert = assert_certificate_agrees_with_sympy(p)
    assert cert.holds
    if n == 9:
        assert cert.primes == (7, 11, 13, 23, 29, 31, 37, 41, 43)


def test_certificate_patterns_match_sympy_ddf_on_g_n():
    """G_n for n <= 20 and n = 53: each recorded prime's degree pattern
    recomputed with galoistools' gf_ddf_zassenhaus, and the degree set
    recomputed from the patterns."""
    for n in list(range(2, 21)) + [53]:
        assert assert_certificate_agrees_with_sympy(G_poly(n)).holds


# -- distinct-degree split against sympy's galoistools -------------------------


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def assert_ddf_agrees_with_sympy(f, p):
    """_gfb_ddf of a monic squarefree f mod p equals sympy's Zassenhaus split."""
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    want = [([int(c) for c in reversed(g)], d)
            for g, d in gt.gf_ddf_zassenhaus([ZZ(c) for c in reversed(f)], p, ZZ)]
    assert [(list(g), d) for g, d in factor._gfb_ddf(bytes(f), p)] == want


def squarefree(f, p):
    f = bytes(f)
    return len(_gfb_gcd(f, _gfb_deriv(f, p), p)) == 1


def squarefree_images(fz):
    """(monic image, p) of an integer polynomial for each prime in SMALL_PRIMES
    where it keeps its degree and stays squarefree, as musser_certificate
    uses them."""
    for p in SMALL_PRIMES:
        if fz[-1] % p == 0:
            continue
        f = list(_gfb_monic(_gfb(fz, p), p))
        if squarefree(f, p):
            yield f, p


def test_gf_ddf_agrees_with_sympy_on_random_polynomials():
    """Random monic squarefree polynomials, and dense ones with most
    residues p - 1, at small primes and at 37 and 83, whose Frobenius sums
    are reduced after every 6 and every 2 columns."""
    rng = random.Random(61)
    checked = 0
    while checked < 120:
        p = rng.choice(SMALL_PRIMES + (37, 83))
        f = [rng.randrange(p) for _ in range(rng.randint(1, 60))] + [1]
        if checked % 3 == 0:
            f = [rng.choice((p - 1, p - 1, rng.randrange(p))) for _ in f[1:]] + [1]
        if not squarefree(f, p):
            continue
        assert_ddf_agrees_with_sympy(f, p)
        checked += 1


def test_gf_ddf_agrees_with_sympy_on_family_images():
    polys = []
    for n in range(2, 13):
        polys.append(G_poly(n))
        for locus in intersection_loci(n):
            polys.append(nf_minimal_polynomial(x_squared_at(locus), "x").inflate(2))
    checked = 0
    for poly in polys:
        for f, p in squarefree_images(poly.primitive().num):
            assert_ddf_agrees_with_sympy(f, p)
            checked += 1
    assert checked >= 100


def test_frobenius_map_keeps_residues_in_their_bytes():
    """h^p mod f from the byte columns against galoistools' square-and-
    multiply gf_pow_mod.  Every entry of h and of f's low part is p - 1 or
    random, at degrees where a dense h makes the column sum reduce before
    its end at every prime: after 254 of 300 columns at p = 2, after 126
    and 252 at p = 3, and after every 6 and every 2 columns at 37 and 83."""
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    rng = random.Random(62)
    for p, n in ((2, 300), (3, 300), (37, 80), (83, 80)):
        for dense in (True, False):
            f = [p - 1 if dense else rng.randrange(p) for _ in range(n)] + [1]
            h = [p - 1 if dense else rng.randrange(p) for _ in range(n)]
            cols = factor._gfb_frobenius(bytes(f), p)
            want = gt.gf_pow_mod([ZZ(c) for c in reversed(h)], p,
                                 [ZZ(c) for c in reversed(f)], p, ZZ)
            got = factor._gfb_frobenius_map(bytes(h), cols, p)
            assert list(got) == [int(c) for c in reversed(want)]


# Every prime up to 83, the byte kernel's bound, divides it.
PRIMORIAL_83 = math.prod(p for p in range(2, 84) if all(p % d for d in range(2, p)))


def test_musser_certificate_has_a_prime_budget():
    """A polynomial with no usable prime up to the byte-kernel bound 83, here
    one whose leading coefficient every such prime divides, raises
    ExactArithError naming the bound, at once."""
    start = time.monotonic()
    with pytest.raises(ExactArithError, match="no usable prime up to 83"):
        musser_certificate(PRIMORIAL_83 * U ** 3 + U + 1)
    assert time.monotonic() - start < 1.0
    ok = PRIMORIAL_83 // 83 * U ** 3 + U + 1  # 83 alone is usable
    assert musser_certificate(ok).primes == (83,)


def test_prime_budget_failure_is_an_internal_error(monkeypatch, capsys):
    """Through the CLI the same failure exits 1 as an internal error, not 2 as
    a usage error."""
    from cvtk import intersect
    from cvtk.cli import main

    monkeypatch.setattr(intersect, "G_poly", lambda n: PRIMORIAL_83 * U ** 2 + 1)
    assert main(["detect", "--n", "2"]) == 1
    assert "internal error: no usable prime up to 83" in capsys.readouterr().err


def test_g53_certificate_uses_primes_11_to_37(monkeypatch):
    """G_53 is one of the two n <= 128 whose Musser certificate needs eight
    usable primes, the most (G_53 mod 2, 3, 5 and 7 is not squarefree); one
    distinct-degree split runs per prime, and the eighth proves G_53
    irreducible."""
    splits = []
    ddf = factor._gfb_ddf
    monkeypatch.setattr(factor, "_gfb_ddf", lambda f, p: splits.append(p) or ddf(f, p))
    cert = musser_certificate(G_poly(53))
    assert cert.holds
    assert splits == list(cert.primes) == [11, 13, 17, 19, 23, 29, 31, 37]
