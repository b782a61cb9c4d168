import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from cvtk import factor
from cvtk.cheb import G_poly
from cvtk.factor import (
    factor_over_rationals,
    iter_primes,
    squarefree_decomposition,
    squarefree_part,
)
from cvtk.intersect import intersection_loci, x_squared_at
from cvtk.numfield import nf_minimal_polynomial
from cvtk.ratpoly import (
    ExactArithError,
    UniPoly,
    _gf_pow_mod,
    _gfb,
    _gfb_deriv,
    _gfb_gcd,
    _gfb_monic,
)


def P(*coeffs, var="u"):
    return UniPoly(coeffs, var)


U = UniPoly.gen("u")


def expand(fac):
    """unit * prod(poly**mult): the polynomial a Factorization stands for."""
    var = fac.factors[0][0].var if fac.factors else "u"
    out = UniPoly.const(fac.unit, var)
    for poly, mult in fac.factors:
        out = out * poly ** mult
    return out


# -- independent small-degree irreducibility oracle ---------------------------


def divisor_candidates(n):
    n = abs(n)
    out = set()
    for d in range(1, n + 1):
        if d * d > n:
            break
        if n % d == 0:
            out.update({d, -d, n // d, -(n // d)})
    return out


def has_rational_root(p):
    """Rational root theorem on the primitive integer form."""
    z = p.primitive().num
    if z[0] == 0:
        return True
    for a in divisor_candidates(z[0]):
        for b in divisor_candidates(z[-1]):
            if p(Fraction(a, b)) == 0:
                return True
    return False


def has_integer_quadratic_factor(p):
    """Brute force over integer quadratic divisors of a primitive quartic."""
    z = p.primitive().num
    if len(z) != 5:
        raise ValueError("quartic expected")
    e, d, c, b, a = z
    # (a1 x^2 + b1 x + c1)(a2 x^2 + b2 x + c2), a1*a2 = a, c1*c2 = e
    for a1 in divisor_candidates(a):
        a2, rem = divmod(a, a1)
        if rem:
            continue
        c1_cands = divisor_candidates(e) if e else set(range(-abs(d) - abs(c) - 1, abs(d) + abs(c) + 2))
        for c1 in c1_cands:
            if e and (c1 == 0 or e % c1):
                continue
            c2 = e // c1 if c1 else 0
            if c1 * c2 != e:
                continue
            for b1 in range(-abs(b) - abs(a) - abs(c) - 2, abs(b) + abs(a) + abs(c) + 3):
                num = b - a1 * 0 - b1 * a2
                # solve b2 from x^3 coefficient: a1*b2 + b1*a2 = b
                if a1 == 0:
                    continue
                if (b - b1 * a2) % a1:
                    continue
                b2 = (b - b1 * a2) // a1
                if (a1 * c2 + b1 * b2 + c1 * a2 == c) and (b1 * c2 + c1 * b2 == d):
                    return True
    return False


def irreducible_small(p):
    """Independent check for degree <= 4."""
    n = p.degree
    if n == 1:
        return True
    if has_rational_root(p):
        return False
    if n <= 3:
        return True
    return not has_integer_quadratic_factor(p)


def rand_poly(rng, deg):
    return UniPoly([rng.randint(-8, 8) for _ in range(deg)] + [rng.randint(1, 6)])


# -- squarefree ----------------------------------------------------------------


def test_squarefree_part_examples():
    p = (U - 1) ** 2 * (U ** 2 + 1)
    assert squarefree_part(p) == (U - 1) * (U ** 2 + 1)
    assert squarefree_part(U ** 2 - 2 * U + 2) == U ** 2 - 2 * U + 2
    assert squarefree_part(P(3)) == P(1)
    with pytest.raises(ExactArithError):
        squarefree_part(UniPoly.zero())


def test_squarefree_decomposition_reconstructs():
    rng = random.Random(48)
    for _ in range(25):
        parts = [rand_poly(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        mults = [rng.randint(1, 3) for _ in parts]
        p = P(rng.choice([2, 3, -1]))
        for f, m in zip(parts, mults):
            p = p * f ** m
        unit, decomp = squarefree_decomposition(p)
        back = UniPoly.const(unit, "u")
        for f, m in decomp:
            assert f.lc == 1
            assert squarefree_part(f) == f
            back = back * f ** m
        assert back == p
        for (f1, _), (f2, _) in itertools.combinations(decomp, 2):
            from cvtk.ratpoly import poly_gcd

            assert poly_gcd(f1, f2).degree == 0


def test_yun_handles_pure_powers():
    _, decomp = squarefree_decomposition(U ** 5)
    assert decomp == [(U, 5)]
    _, decomp = squarefree_decomposition((U ** 2 + 1) ** 3)
    assert decomp == [(U ** 2 + 1, 3)]


# -- factorization ------------------------------------------------------------


def test_factor_examples():
    fac = factor_over_rationals(U ** 2 - 1)
    assert fac.unit == 1
    assert fac.factors == ((U - 1, 1), (U + 1, 1))

    fac = factor_over_rationals(2 * U ** 2 - 2)
    assert fac.unit == 2
    assert fac.factors == ((U - 1, 1), (U + 1, 1))

    fac = factor_over_rationals(U ** 4 - 2 * U ** 3 + 3)
    assert len(fac.factors) == 1 and fac.factors[0][1] == 1

    # x^4 - 6x^2 + 45/4 is irreducible (its quartic with cleared denominators
    # has no rational root and no integer quadratic split)
    p = P(Fraction(45, 4), 0, -6, 0, 1)
    fac = factor_over_rationals(p)
    assert fac.unit == 1 and fac.factors == ((p, 1),)


def test_factor_cyclotomic_like():
    # u^4 + 1 irreducible over Q even though it splits mod every prime
    assert factor_over_rationals(U ** 4 + 1).factors == ((U ** 4 + 1, 1),)
    # u^6 - 1 = (u-1)(u+1)(u^2+u+1)(u^2-u+1)
    fac = factor_over_rationals(U ** 6 - 1)
    assert [f.degree for f, _ in fac.factors] == [1, 1, 2, 2]
    assert expand(fac) == U ** 6 - 1


def test_factor_reconstruction_random():
    rng = random.Random(49)
    for _ in range(30):
        p = P(rng.choice([1, 2, -3, Fraction(1, 2)]))
        for _ in range(rng.randint(1, 3)):
            p = p * rand_poly(rng, rng.randint(1, 4)) ** rng.randint(1, 2)
        fac = factor_over_rationals(p)
        assert expand(fac) == p
        for f, _ in fac.factors:
            assert f.lc == 1
            if f.degree <= 4:
                assert irreducible_small(f)


def test_factor_is_idempotent_on_irreducibles():
    rng = random.Random(50)
    count = 0
    for _ in range(80):
        p = rand_poly(rng, rng.randint(1, 4))
        fac = factor_over_rationals(p)
        for f, _ in fac.factors:
            again = factor_over_rationals(f)
            assert again.factors == ((f, 1),)
            count += 1
    assert count > 40


def test_factor_deterministic():
    p = (U ** 2 - 2) * (U ** 2 - 3) * (U ** 2 + U + 1) * (U - 5)
    a = factor_over_rationals(p)
    b = factor_over_rationals(p)
    assert a == b
    assert [f.to_json()["coeffs"] for f, _ in a.factors] == [
        ["-5", "1"],
        ["-3", "0", "1"],
        ["-2", "0", "1"],
        ["1", "1", "1"],
    ]


def test_factor_large_coeff_swinnerton_dyer_2():
    # min poly of sqrt(2)+sqrt(3): x^4 - 10x^2 + 1, splits into quadratics mod
    # every prime, so recombination must assemble subsets
    p = U ** 4 - 10 * U ** 2 + 1
    assert factor_over_rationals(p).factors == ((p, 1),)


def test_iter_primes():
    it = iter_primes()
    assert [next(it) for _ in range(10)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_factor_degree8_even_poly():
    # 144x^8 - 1424x^6 + 5160x^4 - 8400x^2 + 6125: product of factors must
    # reproduce the primitive form whatever the splitting is
    p = UniPoly([6125, 0, -8400, 0, 5160, 0, -1424, 0, 144], "x")
    fac = factor_over_rationals(p)
    back = expand(fac)
    assert back == p
    assert sum(f.degree * m for f, m in fac.factors) == 8


# -- sympy as an independent oracle -------------------------------------------


def sympy_factors(p):
    """Monic irreducible factors of p with multiplicities, from sympy."""
    sympy = pytest.importorskip("sympy")
    u = sympy.Symbol("u")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * u ** k
               for k, c in enumerate(p.coeffs))
    _, parts = sympy.factor_list(expr, u)
    out = []
    for f, mult in parts:
        coeffs = sympy.Poly(f, u).monic().all_coeffs()[::-1]
        out.append((tuple(Fraction(int(c.p), int(c.q)) for c in coeffs), mult))
    return sorted(out)


def assert_agrees_with_sympy(p):
    fac = factor_over_rationals(p)
    assert expand(fac) == p
    assert sorted((f.coeffs, m) for f, m in fac.factors) == sympy_factors(p)


def test_factor_agrees_with_sympy_on_family_polynomials():
    for n in range(2, 13):
        assert_agrees_with_sympy(G_poly(n))
    for n in range(2, 7):
        for locus in intersection_loci(n):
            p = nf_minimal_polynomial(x_squared_at(locus), "u").inflate(2)
            assert_agrees_with_sympy(p)


def test_factor_agrees_with_sympy_on_random_products():
    rng = random.Random(51)
    for _ in range(20):
        p = P(rng.choice([1, -2, Fraction(3, 5)]))
        for _ in range(rng.randint(3, 6)):
            p = p * rand_poly(rng, rng.randint(1, 3)) ** rng.randint(1, 2)
        assert_agrees_with_sympy(p)


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
    sd = [swinnerton_dyer((2, 3, 5, 7)[:k]) for k in (2, 3, 4)]
    assert [p.degree for p in sd] == [4, 8, 16]
    for p in sd:
        assert_agrees_with_sympy(p)
    assert_agrees_with_sympy(sd[1] * swinnerton_dyer((2, 3, 7)))


def test_recombination_budget_raises(monkeypatch):
    monkeypatch.setattr(factor, "RECOMBINATION_BUDGET", 3)
    with pytest.raises(ExactArithError, match="degree 8, prime .*modular factors"):
        factor_over_rationals(swinnerton_dyer((2, 3, 5)))


def test_equal_degree_split_of_an_irreducible_raises():
    class Rng(random.Random):
        # a draw loop that never stops fails here instead of hanging
        def randrange(self, *args):
            self.draws = getattr(self, "draws", 0) + 1
            assert self.draws < 10**5
            return super().randrange(*args)

    # x^4 + x + 1 is irreducible mod 2: no draw splits it into degree-2 factors
    start = time.monotonic()
    with pytest.raises(ExactArithError, match="no degree-2 split of a degree-4 factor"):
        factor._gf_edf([1, 1, 0, 0, 1], 2, 2, Rng(0))
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("n", [18, 19])
def test_meridian_irreducibility_needs_no_lifting(n, monkeypatch):
    def no_lift(*args):
        raise AssertionError("Hensel lifting ran")

    monkeypatch.setattr(factor, "_hensel_lift", no_lift)
    (locus,) = intersection_loci(n)
    p = nf_minimal_polynomial(x_squared_at(locus), "x").inflate(2)
    assert p.degree == 4 * n - 4
    assert factor_over_rationals(p).factors == ((p, 1),)


def test_n9_meridian_polynomial_lifts(monkeypatch):
    # meridian_min_poly proves q irreducible by a non-square witness, so this
    # is the one family input that still runs the equal-degree split, the
    # Hensel lift and recombination: its 8 Musser primes leave a degree open
    lifts = []
    lift = factor._hensel_lift

    def counted(*args):
        lifts.append(args)
        return lift(*args)

    monkeypatch.setattr(factor, "_hensel_lift", counted)
    (locus,) = intersection_loci(9)
    q = nf_minimal_polynomial(x_squared_at(locus), "x").inflate(2)
    fac = factor_over_rationals(q)
    assert lifts
    assert [f for f, _ in fac.factors] == [q]
    assert_agrees_with_sympy(q)


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
    where it keeps its degree and stays squarefree, as _zassenhaus uses them."""
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
    """h^p mod f from the byte columns against the int-list square-and-
    multiply _gf_pow_mod.  Every entry of h and of f's low part is p - 1 or
    random, at degrees where a dense h makes the column sum reduce before
    its end at every prime: after 254 of 300 columns at p = 2, after 126
    and 252 at p = 3, and after every 6 and every 2 columns at 37 and 83."""
    rng = random.Random(62)
    for p, n in ((2, 300), (3, 300), (37, 80), (83, 80)):
        for dense in (True, False):
            f = [p - 1 if dense else rng.randrange(p) for _ in range(n)] + [1]
            h = [p - 1 if dense else rng.randrange(p) for _ in range(n)]
            cols = factor._gfb_frobenius(bytes(f), p)
            want = _gf_pow_mod(h, p, f, p)
            assert list(factor._gfb_frobenius_map(bytes(h), cols, p)) == want


# Every prime up to 83, the byte kernel's bound, divides it.
PRIMORIAL_83 = math.prod(p for p in range(2, 84) if all(p % d for d in range(2, p)))


def test_musser_certificate_has_a_prime_budget():
    """A polynomial with no usable prime up to the byte-kernel bound 83, here
    one whose leading coefficient every such prime divides, raises
    ExactArithError naming the bound, at once."""
    start = time.monotonic()
    with pytest.raises(ExactArithError, match="no usable prime up to 83"):
        factor_over_rationals(PRIMORIAL_83 * U ** 3 + U + 1)
    assert time.monotonic() - start < 1.0
    ok = PRIMORIAL_83 // 83 * U ** 3 + U + 1  # 83 alone is usable
    assert expand(factor_over_rationals(ok)) == ok


def test_prime_budget_failure_is_an_internal_error(monkeypatch, capsys):
    """Through the CLI the same failure exits 1 as an internal error, not 2 as
    a usage error."""
    from cvtk import intersect
    from cvtk.cli import main

    monkeypatch.setattr(intersect, "G_poly", lambda n: PRIMORIAL_83 * U ** 2 + 1)
    assert main(["detect", "--n", "2"]) == 1
    assert "internal error: no usable prime up to 83" in capsys.readouterr().err


def test_g53_certificate_uses_all_modular_primes(monkeypatch):
    """G_53 is one of the two n <= 128 whose Musser certificate needs all
    MODULAR_PRIMES usable primes (G_53 mod 2, 3, 5 and 7 is not
    squarefree); it still proves G_53 irreducible with no lifting."""
    splits = []
    ddf = factor._gfb_ddf
    monkeypatch.setattr(factor, "_gfb_ddf", lambda f, p: splits.append(p) or ddf(f, p))
    monkeypatch.setattr(factor, "_hensel_lift", lambda *args: pytest.fail("Hensel lifting ran"))
    G = G_poly(53)
    assert factor_over_rationals(G).factors == ((G.monic(), 1),)
    assert splits == [11, 13, 17, 19, 23, 29, 31, 37]
    assert len(splits) == factor.MODULAR_PRIMES
