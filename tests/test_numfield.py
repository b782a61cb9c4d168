import random
from fractions import Fraction

import pytest

from cvtk import numfield
from cvtk.numfield import (
    IntegralityVerdict,
    NumberField,
    integrality_verdict,
    multiplication_matrix,
    nf_minimal_polynomial,
)
from cvtk.intersect import intersection_loci, x_squared_at
from cvtk.ratpoly import ExactArithError, UniPoly, char_poly

U = UniPoly.gen("u")
R = UniPoly.gen("r")


def gaussian():
    return NumberField(R ** 2 + 1)


def test_field_construction():
    k = gaussian()
    assert k.degree == 2
    with pytest.raises(ExactArithError):
        NumberField(2 * R ** 2 + 1)
    with pytest.raises(ExactArithError):
        NumberField(UniPoly.const(3, "r"))


def test_basic_arithmetic():
    k = gaussian()
    i = k.gen()
    assert i * i == k.elem((-1,))
    assert (1 + i) * (1 - i) == k.elem((2,))
    assert (1 + i) ** 2 == 2 * i
    assert i ** 4 == k.one()
    assert (i - i).is_zero
    assert k.elem((Fraction(1, 2), 3)).coeffs == (Fraction(1, 2), Fraction(3))


def test_inverse_examples():
    k = gaussian()
    i = k.gen()
    inv = (1 + i).inverse()
    assert inv == k.elem((Fraction(1, 2), Fraction(-1, 2)))
    assert inv * (1 + i) == k.one()
    with pytest.raises(ZeroDivisionError):
        k.zero().inverse()
    # field used at the first interesting level: Q[r]/(r^2 - 2r + 2)
    k2 = NumberField(R ** 2 - 2 * R + 2)
    r = k2.gen()
    assert r.inverse() == k2.elem((1, Fraction(-1, 2)))  # (2 - r)/2
    assert r.inverse() * r == k2.one()
    assert (r ** -2) == k2.elem((Fraction(1, 2), Fraction(-1, 2)))  # (1 - r)/2


def test_inverse_random_property():
    rng = random.Random(51)
    moduli = [R ** 2 + 1, R ** 2 - 2 * R + 2, R ** 4 - 2 * R ** 3 + 3]
    for m in moduli:
        k = NumberField(m)
        for _ in range(20):
            a = k.elem([rng.randint(-5, 5) for _ in range(k.degree)])
            if a.is_zero:
                continue
            assert a * a.inverse() == k.one()
            assert (a / a) == k.one()


def test_power_basis_reduction_matches_polynomials():
    rng = random.Random(52)
    m = R ** 4 - 2 * R ** 3 + 3
    k = NumberField(m)
    for _ in range(20):
        pa = UniPoly([rng.randint(-4, 4) for _ in range(6)], "r")
        pb = UniPoly([rng.randint(-4, 4) for _ in range(6)], "r")
        a, b = k.from_poly(pa), k.from_poly(pb)
        assert a * b == k.from_poly(pa * pb)
        assert a + b == k.from_poly(pa + pb)


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
            assert val.is_zero
            # minimality at small degree: no proper monic divisor vanishes
            from cvtk.factor import is_irreducible

            assert mp.degree == 1 or is_irreducible(mp)


def test_min_poly_of_subfield_element():
    # r = sqrt(2) + sqrt(3); r^2 = 5 + 2 sqrt(6) lies in a quadratic subfield,
    # so the char poly is the square of the minimal polynomial
    k = NumberField(R ** 4 - 10 * R ** 2 + 1)
    a = k.gen() ** 2
    mp = U ** 2 - 10 * U + 1
    assert char_poly(multiplication_matrix(a)) == mp ** 2
    assert nf_minimal_polynomial(a) == mp


def test_min_poly_vanishing_check_catches_a_wrong_polynomial(monkeypatch):
    good = numfield.squarefree_part
    monkeypatch.setattr(numfield, "squarefree_part", lambda p: good(p) + 1)
    (locus,) = intersection_loci(3)
    with pytest.raises(ExactArithError, match="does not vanish"):
        nf_minimal_polynomial(x_squared_at(locus))


def test_multiplication_matrix_trace():
    # trace of mult-by-gen matrix = -(second-highest coeff of modulus)
    m = R ** 4 - 2 * R ** 3 + 3
    k = NumberField(m)
    assert multiplication_matrix(k.gen()).trace() == 2


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
