import random
from fractions import Fraction
from math import gcd

import pytest

from cvtk import numfield
from cvtk.numfield import (
    IntegralityVerdict,
    NumberField,
    char_poly,
    integrality_verdict,
    multiplication_matrix,
    nf_minimal_polynomial,
    non_square_witness,
)
from cvtk.intersect import build_intersection_report, intersection_loci, x_squared_at
from cvtk.ratpoly import ExactArithError, UniPoly
from cvtk.trace import longitude_trace
from krylov import krylov_char_poly, krylov_min_poly

U = UniPoly.gen("u")
R = UniPoly.gen("r")


def sympy_irreducible(p):
    """Irreducibility over Q, from sympy."""
    sympy = pytest.importorskip("sympy")
    u = sympy.Symbol("u")
    return sympy.Poly(list(reversed(p.coeffs)), u, domain=sympy.QQ).is_irreducible


def gaussian():
    return NumberField(R ** 2 + 1)


def test_field_construction():
    k = gaussian()
    assert k.degree == 2
    with pytest.raises(ExactArithError):
        NumberField(2 * R ** 2 + 1)
    with pytest.raises(ExactArithError):
        NumberField(UniPoly.const(3, "r"))
    with pytest.raises(ExactArithError):
        NumberField(R ** 2 + Fraction(1, 2))


def test_basic_arithmetic():
    k = gaussian()
    i = k.gen()
    assert i * i == k.elem((-1,))
    assert (1 + i) * (1 - i) == k.elem((2,))
    assert (1 + i) ** 2 == 2 * i
    assert i ** 4 == k.one()
    assert i - i == k.elem(())
    assert k.elem((Fraction(1, 2), 3)).coeffs == (Fraction(1, 2), Fraction(3))


def test_negative_powers_are_refused():
    """The field has no inverse; x^2 is built without one (see
    intersect.x_squared_at)."""
    k = gaussian()
    with pytest.raises(ExactArithError, match="non-negative"):
        k.gen() ** -1


def _to_sympy(sympy, p: UniPoly):
    r = sympy.Symbol(p.var)
    return sympy.Poly(list(reversed(p.num)) or [0], r, domain="QQ") * sympy.Rational(1, p.den)


def _sympy_coords(poly, k):
    """Power-basis coordinates of a sympy polynomial of degree below k."""
    cs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())] if poly else []
    return tuple(cs + [Fraction(0)] * (k - len(cs)))


def test_power_basis_reduction_matches_polynomials():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(52)
    m = R ** 4 - 2 * R ** 3 + 3
    k = NumberField(m)
    for _ in range(20):
        pa = UniPoly([rng.randint(-4, 4) for _ in range(6)], "r")
        pb = UniPoly([rng.randint(-4, 4) for _ in range(6)], "r")
        a, b = k.from_poly(pa), k.from_poly(pb)
        assert a * b == k.from_poly(pa * pb)
        # an oracle that shares no code with the field product
        want = sympy.rem(_to_sympy(sympy, pa * pb), _to_sympy(sympy, m))
        assert (a * b).coeffs == _sympy_coords(want, k.degree)
        assert a + b == k.from_poly(pa + pb)


def test_multiplication_matrix_columns_match_sympy_rem():
    """Column i of multiplication_matrix(a) is rem(D*a*r^i, m), for an
    element of the n = 3 and n = 5 locus fields."""
    sympy = pytest.importorskip("sympy")
    for n in (3, 5):
        locus = intersection_loci(n)[0]
        a = locus.x_squared + locus.r_elem
        m = _to_sympy(sympy, locus.modulus)
        d, rows = multiplication_matrix(a)
        assert d == a.den and len(rows) == locus.modulus.degree
        for i, col in enumerate(zip(*rows)):
            want = sympy.rem(_to_sympy(sympy, UniPoly.from_ints(a.num, 1, "r") * R ** i), m)
            assert tuple(map(Fraction, col)) == _sympy_coords(want, len(rows))


def test_equal_elements_hash_equal():
    m = R ** 3 - R + 1
    k1, k2 = NumberField(m), NumberField(R ** 3 - R + 1)
    a = k1.elem((Fraction(1, 2), 3, Fraction(-2, 3)))
    b = k2.from_poly(UniPoly([Fraction(1, 2), 3, Fraction(-2, 3)], "r") + m * (R - 5))
    assert a == b and hash(a) == hash(b)
    assert hash(k1.gen() ** 3) == hash(k2.gen() - 1)
    locus = build_intersection_report(3).locus
    assert len({locus, build_intersection_report(3).locus}) == 1


def assert_canonical(a):
    assert len(a.num) == a.field.degree
    assert all(type(c) is int for c in a.num) and type(a.den) is int
    assert a.den > 0 and gcd(a.den, *a.num) == 1


def test_arithmetic_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    r = sympy.Symbol("r")
    rng = random.Random(71)

    def rational(c):
        return sympy.Rational(c.numerator, c.denominator)

    def coords(poly, k):
        cs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
        return tuple(cs + [Fraction(0)] * (k - len(cs)))

    fields = 0
    while fields < 30:
        k = rng.randint(1, 8)
        m = UniPoly([rng.randint(-5, 5) for _ in range(k)] + [1], "r")
        if not sympy_irreducible(m):
            continue
        fields += 1
        field = NumberField(m)
        ms = sympy.Poly(list(reversed(m.coeffs)), r, domain=sympy.QQ)

        def rand_elem():
            cs = [Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 4, 9, 35]))
                  for _ in range(rng.randint(0, k))]
            return field.elem(cs), sympy.Poly([rational(c) for c in reversed(cs)] or [0], r,
                                              domain=sympy.QQ)

        for _ in range(4):
            (a, sa), (b, sb) = rand_elem(), rand_elem()
            e = rng.randint(0, 5)
            c = rng.randint(-9, 9)
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
            cases = [
                (a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb), (a ** e, sa ** e),
                (a + c, sa + c), (c - a, c - sa),
                (a + q, sa + rational(q)), (a * q, sa * rational(q)),
            ]
            for got, want in cases:
                assert_canonical(got)
                assert got.coeffs == coords(want.rem(ms), k)
            built = field.from_poly(UniPoly(a.coeffs, "r") * UniPoly(b.coeffs, "r"))
            assert built == a * b and hash(built) == hash(a * b)


def test_min_poly_examples():
    k = gaussian()
    i = k.gen()
    assert nf_minimal_polynomial(i) == U ** 2 + 1
    assert nf_minimal_polynomial(1 + i) == U ** 2 - 2 * U + 2
    assert nf_minimal_polynomial(k.elem((Fraction(3, 2),))) == U - Fraction(3, 2)
    # x^2 = (3r + 3)/2 in Q[r]/(r^2 - 2r + 2) has min poly u^2 - 6u + 45/4
    k2 = NumberField(R ** 2 - 2 * R + 2)
    x2 = k2.elem((Fraction(3, 2), Fraction(3, 2)))
    assert nf_minimal_polynomial(x2) == U ** 2 - 6 * U + Fraction(45, 4)


def test_min_poly_properties():
    rng = random.Random(53)
    for m in (R ** 2 - 2 * R + 2, R ** 4 - 2 * R ** 3 + 3):
        k = NumberField(m)
        for _ in range(12):
            a = k.elem([rng.randint(-3, 3) for _ in range(k.degree)])
            mp = nf_minimal_polynomial(a)
            assert mp.lc == 1
            assert k.degree % mp.degree == 0
            val = mp(a)
            assert val == k.elem(())
            # minimality at small degree: no proper monic divisor vanishes
            assert mp.degree == 1 or sympy_irreducible(mp)


def test_min_poly_of_subfield_element():
    # r = sqrt(2) + sqrt(3); r^2 = 5 + 2 sqrt(6) lies in a quadratic subfield,
    # so the char poly is the square of the minimal polynomial
    k = NumberField(R ** 4 - 10 * R ** 2 + 1)
    a = k.gen() ** 2
    mp = U ** 2 - 10 * U + 1
    assert char_poly(a) == mp ** 2
    assert nf_minimal_polynomial(a) == mp


def test_min_poly_vanishing_check_catches_a_wrong_polynomial(monkeypatch):
    """The Horner sum in B = b^K has to catch the wrong polynomial: over three
    blocks of baby steps at n = 3 (k = 4, K = 2), over four at n = 10 (k = 18,
    K = 6)."""
    good = numfield.squarefree_part
    monkeypatch.setattr(numfield, "squarefree_part", lambda p: good(p) + 1)
    for n in (3, 10):
        (locus,) = intersection_loci(n)
        with pytest.raises(ExactArithError, match="does not vanish"):
            nf_minimal_polynomial(x_squared_at(locus))


def test_non_square_witness_examples():
    k = gaussian()
    # r^2 + 1 has the simple roots 2 and 3 mod 5, and 3 is a non-residue mod 5
    assert non_square_witness(k.elem((3,))) == (5, 2)
    assert non_square_witness(k.elem((-1,))) is None  # -1 = i^2


def test_squares_have_no_witness():
    # r = 3*sqrt(5): r^2 - 45 has the double root 0 mod 3, where the square
    # 5 = (r/3)^2 reads 2, a non-residue; only a simple root is an embedding
    k = NumberField(R ** 2 - 45)
    beta = k.gen() * Fraction(1, 3)
    assert beta * beta == k.elem((5,))
    assert non_square_witness(beta * beta) is None
    rng = random.Random(67)
    for m in (R ** 2 + 1, R ** 4 - 10 * R ** 2 + 1, R ** 4 - 2 * R ** 3 + 3):
        k = NumberField(m)
        for _ in range(10):
            beta = k.elem([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(k.degree)])
            if beta != k.elem(()):
                assert non_square_witness(beta * beta) is None


def test_multiplication_matrix_trace():
    # trace of mult-by-gen matrix = -(second-highest coeff of modulus)
    m = R ** 4 - 2 * R ** 3 + 3
    k = NumberField(m)
    d, rows = multiplication_matrix(k.gen())
    assert d == 1 and sum(rows[i][i] for i in range(4)) == 2
    # a = r/2 + 1/3: D = 6 and A = 6*M = 3*M_r + 2*I, so Tr(A) = 3*2 + 2*4
    d, rows = multiplication_matrix(k.elem((Fraction(1, 3), Fraction(1, 2))))
    assert d == 6 and sum(rows[i][i] for i in range(4)) == 14


# -- char_poly: oracles independent of the power-sum path ---------------------


def test_char_poly_companion_identity():
    # the multiplication matrix of the generator is the companion matrix
    rng = random.Random(46)
    for _ in range(25):
        deg = rng.randint(1, 6)
        p = UniPoly([rng.randint(-5, 5) for _ in range(deg)] + [1])
        assert char_poly(NumberField(p).gen()) == p


def test_char_poly_of_one():
    for m in (R + 3, R ** 2 + 1, R ** 3 - R + 1, R ** 4 - 2 * R ** 3 + 3):
        k = NumberField(m)
        assert char_poly(k.one()) == (U - 1) ** k.degree


def test_char_poly_cayley_hamilton():
    rng = random.Random(47)
    for _ in range(10):
        n = rng.randint(1, 4)
        k = NumberField(UniPoly([rng.randint(-3, 3) for _ in range(n)] + [1], "r"))
        a = k.elem([rng.randint(-3, 3) for _ in range(n)])
        assert char_poly(a)(a) == k.elem(())


def sympy_char_poly(a):
    """Ascending coefficients of det(u*I - M) from sympy, M the matrix of
    x -> a*x built column by column as a * r^i mod m in sympy."""
    sympy = pytest.importorskip("sympy")
    r = sympy.Symbol("r")
    k = a.field.degree
    m = sympy.Poly([int(c) for c in reversed(a.field.modulus.coeffs)], r)
    pa = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(a.coeffs)], r)
    cols = []
    for i in range(k):
        col = (pa * sympy.Poly(r ** i, r)).rem(m).all_coeffs()[::-1]
        cols.append(col + [0] * (k - len(col)))
    M = sympy.Matrix(k, k, lambda i, j: cols[j][i])
    return [Fraction(int(c.p), int(c.q)) for c in M.charpoly().all_coeffs()[::-1]]


def resultant_char_poly(a):
    """Ascending coefficients of res_r(m(r), u - a(r)), the product of u - a(rho)
    over the roots rho of m: no matrix at all."""
    sympy = pytest.importorskip("sympy")
    r, u = sympy.symbols("r u")
    m = sum(int(c) * r ** i for i, c in enumerate(a.field.modulus.coeffs))
    ar = sum(sympy.Rational(c.numerator, c.denominator) * r ** i for i, c in enumerate(a.coeffs))
    res = sympy.Poly(m, r, u).resultant(sympy.Poly(u - ar, r, u))
    return [Fraction(int(c.p), int(c.q)) for c in sympy.Poly(res.as_expr(), u).all_coeffs()[::-1]]


def family_elements(max_n):
    """The x^2 and longitude-trace elements of every locus for n = 2..max_n."""
    for n in range(2, max_n + 1):
        for locus in intersection_loci(n):
            yield locus.x_squared
            yield longitude_trace(locus)[0]


def test_char_poly_agrees_with_sympy_on_mixed_denominators():
    rng = random.Random(52)
    for k in range(1, 9):
        for _ in range(3):
            field = NumberField(UniPoly([rng.randint(-9, 9) for _ in range(k)] + [1], "r"))
            a = field.elem([Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 7, 12, 35]))
                            for _ in range(k)])
            assert list(char_poly(a).coeffs) == sympy_char_poly(a)


def test_char_poly_agrees_with_sympy_on_family_elements():
    for a in family_elements(8):
        assert list(char_poly(a).coeffs) == sympy_char_poly(a)


def test_char_poly_agrees_with_resultant_on_family_elements():
    for a in family_elements(8):
        assert list(char_poly(a).coeffs) == resultant_char_poly(a)


# -- the giant-step path against the Krylov sequence (tests/krylov.py) --------


def eisenstein_field(rng, degree, step=1):
    """Q[r]/(g(r^step)) for a random monic g of the given degree whose lower
    coefficients are even and whose constant is 2 mod 4: g(r^step) is then
    Eisenstein at 2, so irreducible."""
    g = [4 * rng.randint(-20, 20) + 2] + [2 * rng.randint(-20, 20) for _ in range(degree - 1)]
    m = [0] * (degree * step + 1)
    m[::step] = g + [1]
    return NumberField(UniPoly(m, "r"))


def assert_matches_krylov(a):
    assert char_poly(a) == krylov_char_poly(a)
    assert nf_minimal_polynomial(a) == krylov_min_poly(a)


def test_power_sums_match_krylov_on_family_elements():
    for a in family_elements(30):
        assert_matches_krylov(a)


def test_power_sums_match_krylov_on_random_fields():
    """Degrees 13..40 run at least two giant steps, and the minimal
    polynomial of a random element has degree k, so the Horner check runs
    over at least three blocks of baby steps."""
    rng = random.Random(71)
    for degree in (13, 17, 24, 31, 40):
        field = eisenstein_field(rng, degree)
        d, baby, giant = numfield._power_steps(field.gen())
        assert len(giant) == degree and 2 * len(baby) <= degree
        for _ in range(2):
            a = field.elem([Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 7, 12, 35]))
                            for _ in range(degree)])
            assert_matches_krylov(a)
            assert nf_minimal_polynomial(a).degree == degree


def test_power_sums_match_krylov_on_subfield_elements():
    """An element of Q(r^step) in a field of degree 16 or 18: its char poly
    is a proper power of its minimal polynomial."""
    rng = random.Random(72)
    for degree, step in ((8, 2), (6, 3)):
        field = eisenstein_field(rng, degree, step)
        s = field.gen() ** step
        a = s * Fraction(1, 6) + s ** 2 * Fraction(-2, 5) + 3 + s ** (degree - 1)
        mp = nf_minimal_polynomial(a)
        assert mp.degree == degree and char_poly(a) == mp ** step
        assert_matches_krylov(a)


def test_integrality_verdicts():
    v = integrality_verdict(U ** 2 - 6 * U + Fraction(45, 4))
    assert v == IntegralityVerdict(False, 4, (2,))
    assert not v.is_algebraic_integer
    assert v.prime_set_complete

    v = integrality_verdict(U ** 2 - 28 * U + 772)
    assert v.is_algebraic_integer
    assert v.denominator_lcm == 1 and v.bad_primes == ()

    v = integrality_verdict(U - Fraction(1, 12))
    assert v == IntegralityVerdict(False, 12, (2, 3))

    v = integrality_verdict(U - Fraction(35, 9))
    assert v == IntegralityVerdict(False, 9, (3,))

    with pytest.raises(ExactArithError):
        integrality_verdict(2 * U - 1)


def test_integrality_large_prime_cofactor():
    # denominator with a prime factor found by the sqrt cutoff
    big = 999983  # prime below the trial bound
    v = integrality_verdict(U - Fraction(1, 2 * big))
    assert v.bad_primes == (2, big)
    assert v.prime_set_complete


def test_integrality_cofactor_above_bound():
    p1, p2 = 1000003, 1000033  # primes above the 10^6 trial bound
    v = integrality_verdict(U - Fraction(1, 3 * p1 * p2))
    assert 3 in v.bad_primes
    assert not v.prime_set_complete
    assert v.composite_cofactor == p1 * p2


def test_json_shape():
    v = integrality_verdict(U ** 2 - 6 * U + Fraction(45, 4))
    assert v.to_json() == {
        "integral": False,
        "denominator_lcm": "4",
        "bad_primes": [2],
        "prime_set_complete": True,
    }
