import time
from fractions import Fraction

import pytest

from cvtk.cheb import (
    G_poly,
    f_poly,
    f_values,
    failed_identities,
    g_poly,
    identity_checks,
    square_mod_two,
)
from cvtk.intersect import intersection_loci, x_squared_at
from cvtk.ratpoly import BiPoly, UniPoly, poly_gcd

U = UniPoly.gen("u")


def test_f_small_values():
    assert f_poly(0).is_zero
    assert f_poly(1) == UniPoly.const(1)
    assert f_poly(2) == U
    assert f_poly(3) == U ** 2 - 1
    assert f_poly(4) == U ** 3 - 2 * U
    assert f_poly(5) == U ** 4 - 3 * U ** 2 + 1
    assert f_poly(6) == U ** 5 - 4 * U ** 3 + 3 * U


def _horner_f(j, value):
    """f_j(value) by Horner on f_poly(j), with f_{-1} = -1, lifted into the
    ring of value (Horner returns a bare 0 or 1 for j = 0, 1)."""
    return value * 0 + (-1 if j == -1 else f_poly(j)(value))


def test_f_values_match_horner_in_every_ring():
    (locus,) = intersection_loci(5)
    exact = [
        7,
        Fraction(-5, 3),
        locus.r_elem,
        x_squared_at(locus),
        U,
        BiPoly.gen("x", ("r", "x")),
    ]
    top = 14
    for value in exact:
        table = f_values(value, top)
        assert len(table) == top + 2
        for j in range(-1, top + 1):
            assert table[j + 1] == _horner_f(j, value), (value, j)
    z = complex(0.37, -1.21)
    table = f_values(z, top)
    for j in range(-1, top + 1):
        want = _horner_f(j, z)
        assert abs(table[j + 1] - want) <= 1e-12 * max(1.0, abs(want)), j


def test_f_values_short_tables_and_extension_in_place():
    assert f_values(Fraction(3), -1) == [-1]
    assert f_values(Fraction(3), 0) == [-1, 0]
    assert f_values(Fraction(3), 1) == [-1, 0, 1]
    table = f_values(U, 3)
    assert f_values(U, 9, table) is table
    assert table == f_values(U, 9)
    assert f_values(U, 2, table) is table  # a longer table is returned whole
    with pytest.raises(ValueError):
        f_values(U, -2)


def test_g_small_values():
    assert g_poly(1) == UniPoly.const(1)
    assert g_poly(2) == U - 1
    assert g_poly(3) == U ** 2 - U - 1
    assert g_poly(4) == U ** 3 - U ** 2 - 2 * U + 1


def test_G_values():
    assert G_poly(1) == UniPoly.const(1)
    assert G_poly(2) == U ** 2 - 2 * U + 2
    assert G_poly(3) == U ** 4 - 2 * U ** 3 + 3


def test_degrees_and_monic():
    for j in range(1, 30):
        assert f_poly(j).degree == j - 1
        assert f_poly(j).lc == 1
        assert g_poly(j).degree == j - 1
        assert g_poly(j).lc == 1
        assert G_poly(j).degree == 2 * j - 2
        assert G_poly(j).lc == 1


def test_rejects_negative():
    with pytest.raises(ValueError):
        f_poly(-1)
    with pytest.raises(ValueError):
        g_poly(0)
    with pytest.raises(ValueError):
        G_poly(0)


def test_identity_checks_labels():
    checks = identity_checks(2)
    assert len(checks) == 9
    assert all(isinstance(v, bool) for v in checks.values())
    with pytest.raises(ValueError):
        identity_checks(1)


def test_identities_through_60():
    start = time.time()
    assert failed_identities(60) == []
    assert time.time() - start < 5.0


def test_square_mod_two_matches_the_product():
    """The Frobenius comparison agrees with multiplying f out, on the family
    and on inputs whose parities end at either side's degree."""
    for n in range(2, 61):
        diff = G_poly(n) - f_poly(n) * f_poly(n)
        assert square_mod_two(G_poly(n), f_poly(n)) == all(c % 2 == 0 for c in diff.num)
    one = UniPoly.const(1)
    f = 2 * U + 1
    assert square_mod_two(one, f)  # f^2 = 4u^2 + 4u + 1: even above degree 0
    assert square_mod_two(f * f + 6 * U ** 5, f)
    assert not square_mod_two(f * f + U ** 5, f)
    assert not square_mod_two(one, U + 1)
    assert square_mod_two(UniPoly.const(0), 2 * U)
    assert not square_mod_two(one, UniPoly.const(Fraction(1, 3)))
