import time
from fractions import Fraction

import pytest

from cvtk import cheb, ratpoly
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


def test_f_table_matches_the_generic_recurrence():
    """f_poly's integer recurrence against f_values run on UniPolys."""
    table = f_values(U, 300)
    for j in range(301):
        assert f_poly(j) == table[j + 1], j


def _wronskian(j):
    """G_j = g_{j+1}' g_j - g_{j+1} g_j' by UniPoly products."""
    gj, gj1 = g_poly(j), g_poly(j + 1)
    return gj1.derivative() * gj - gj1 * gj.derivative()


@pytest.mark.parametrize("order", [range(130, 0, -1), range(1, 131)], ids=["descending", "ascending"])
def test_G_table_matches_the_unipoly_wronskian(monkeypatch, order):
    """G_poly filled from empty tables, from the top index down and from the
    bottom up, against the Wronskian formed by UniPoly products."""
    monkeypatch.setattr(cheb, "_f", cheb._f[:2])
    monkeypatch.setattr(cheb, "_g", {})
    monkeypatch.setattr(cheb, "_G", {})
    for j in order:
        assert G_poly(j) == _wronskian(j), j
    assert sorted(cheb._G) == list(range(1, 131))


def test_G_is_the_sum_of_the_squares_of_g():
    """G_j = G_{j-1} + g_j^2 with G_0 = 0, so G_j = g_1^2 + ... + g_j^2:
    an oracle that shares no step with the Wronskian."""
    total = UniPoly.zero()
    for j in range(1, 201):
        total = total + g_poly(j) * g_poly(j)
        assert G_poly(j) == total, j


def test_g_small_values():
    assert g_poly(1) == UniPoly.const(1)
    assert g_poly(2) == U - 1
    assert g_poly(3) == U ** 2 - U - 1
    assert g_poly(4) == U ** 3 - U ** 2 - 2 * U + 1


def test_G_values():
    assert G_poly(1) == UniPoly.const(1)
    assert G_poly(2) == U ** 2 - 2 * U + 2
    assert G_poly(3) == U ** 4 - 2 * U ** 3 + 3
    # (u + 2) G_n = f_{2n} + 2n and f_j(2) = j: r = 2 is never on the locus.
    assert [G_poly(n)(2) for n in range(2, 129)] == list(range(2, 129))


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


def _product_identity_checks(j):
    """identity_checks(j) with every identity formed by UniPoly products,
    the oracle for the evaluation at one power of two."""
    fj, fjm, fjp = f_poly(j), f_poly(j - 1), f_poly(j + 1)
    gj, gjp, Gj = g_poly(j), g_poly(j + 1), G_poly(j)
    fj2 = fj * fj
    return {
        "shifted-trace": (U + 2) * Gj == f_poly(2 * j) + 2 * j,
        "double-index": f_poly(2 * j) == U * fj2 - 2 * fj * fjm,
        "value-at-two": fj(Fraction(2)) == j,
        "f-squarefree": poly_gcd(fj, fj.derivative()).degree == 0,
        "G-f-coprime": poly_gcd(Gj, fj).degree == 0,
        "f-wronskian": fj2 - fjm * fjp == UniPoly.const(1),
        "g-wronskian": fj * gj - fjm * gjp == UniPoly.const(1),
        "mod-two": square_mod_two(Gj, fj),
        "G-squarefree": poly_gcd(Gj, Gj.derivative()).degree == 0,
    }


def test_identity_checks_match_the_products():
    for j in range(2, 61):
        got = identity_checks(j)
        want = _product_identity_checks(j)
        assert list(got.items()) == list(want.items()), j


EVALUATED = ("shifted-trace", "double-index", "f-wronskian", "g-wronskian")
J = 7


def _warm(j):
    """Fill every cache that identity_checks(j) reads, so that a patched
    entry is read as it is and no cache is extended from it."""
    assert identity_checks(j) == _product_identity_checks(j)


def _patch(monkeypatch, cache, key, value):
    """Put value at key of a copy of the cache named `cache` (the f table is
    a list, the g and G caches are dicts) for the rest of the test."""
    patched = getattr(cheb, cache).copy()
    patched[key] = value
    monkeypatch.setattr(cheb, cache, patched)


def _evaluated_failures(j):
    return {label for label in EVALUATED if not identity_checks(j)[label]}


# (cache, key, the evaluated labels that read the entry) at j = J.
ENTRIES = [
    ("_f", J, {"double-index", "f-wronskian", "g-wronskian"}),  # f_{j-1}
    ("_f", J + 1, {"double-index", "f-wronskian", "g-wronskian"}),  # f_j
    ("_f", J + 2, {"f-wronskian"}),  # f_{j+1}
    ("_f", 2 * J + 1, {"shifted-trace", "double-index"}),  # f_{2j}
    ("_g", J, {"g-wronskian"}),
    ("_g", J + 1, {"g-wronskian"}),
    ("_G", J, {"shifted-trace"}),
]


@pytest.mark.parametrize("cache, key, labels", ENTRIES)
def test_a_wrong_entry_fails_its_identities(monkeypatch, cache, key, labels):
    """A changed integer coefficient fails exactly the identities that read
    the entry, and so do a zero entry and the same numerator over the
    denominator 3, which the packed numerators alone would pass."""
    _warm(J)
    entry = getattr(cheb, cache)[key]
    assert _evaluated_failures(J) == set()
    _patch(monkeypatch, cache, key, entry + 2 * U)
    assert _evaluated_failures(J) == labels
    _patch(monkeypatch, cache, key, UniPoly.zero())
    assert _evaluated_failures(J) == labels
    _patch(monkeypatch, cache, key, UniPoly.from_ints(entry.num, 3))
    assert getattr(cheb, cache)[key].den == 3
    assert _evaluated_failures(J) == labels


def test_a_perturbation_vanishing_at_the_old_point_still_fails(monkeypatch):
    """G_7 + u - 2^k differs from G_7 by a polynomial that vanishes at 2^k.
    The evaluation point is read off the perturbed entries, so it moves
    above 2^k, and shifted-trace fails for every k; one of these k is the
    exponent that the unperturbed j = 7 evaluates at."""
    _warm(J)
    widths = []
    real_pack = cheb._kronecker_pack

    def recording_pack(a, wb):
        widths.append(wb)
        return real_pack(a, wb)

    monkeypatch.setattr(cheb, "_kronecker_pack", recording_pack)
    assert identity_checks(J)["shifted-trace"]
    assert 8 * widths[0] in range(8, 513, 8)
    G7 = G_poly(J)
    for k in range(8, 513, 8):
        _patch(monkeypatch, "_G", J, G7 + U - 2 ** k)
        assert not identity_checks(J)["shifted-trace"], k


def test_identity_path_forms_no_polynomial_product(monkeypatch):
    """With the tables filled, the nine identities through j = 60 multiply
    no two coefficient lists: every product is of packed ints."""
    f_poly(121)
    for j in range(1, 62):
        g_poly(j)
    for j in range(1, 61):
        G_poly(j)

    def refuse(a, b):
        raise AssertionError("polynomial product on the identity path")

    monkeypatch.setattr(ratpoly, "_conv", refuse)
    assert failed_identities(60) == []


def test_identities_through_60():
    start = time.time()
    assert failed_identities(60) == []
    assert time.time() - start < 5.0


def test_meridian_closed_form_identities():
    """The two identities behind x^2 = 2 + r - V_n(r)^2 / (4 n^2), checked by
    exact polynomial products: f_n V_n = f_{2n} with V_n = f_{n+1} - f_{n-1},
    and (u + 2) G_n = f_{2n} + 2n, so f_n V_n = -2n modulo G_n."""
    for n in range(2, 65):
        assert f_poly(n) * (f_poly(n + 1) - f_poly(n - 1)) == f_poly(2 * n), n
        assert (U + 2) * G_poly(n) == f_poly(2 * n) + 2 * n, n


def test_g_n_is_four_terms_in_z():
    """With r = z + 1/z and the Laurent terms cleared,
    z^(2n-2) (z - 1)(z + 1)^3 G_n(r) = z^(4n) + 2n z^(2n+1) - 2n z^(2n-1) - 1,
    as an exact polynomial identity for n = 2..64."""
    z = UniPoly.gen("z")
    for n in range(2, 65):
        g, d = G_poly(n).coeffs, 2 * n - 2
        # Horner in r: z^m H_m(r) = z^(m-1) H_(m-1)(r) (z^2 + 1) + g_(d-m) z^m
        cleared = UniPoly.const(g[d], "z")
        for m in range(1, d + 1):
            cleared = cleared * (z * z + 1) + g[d - m] * z ** m
        expected = z ** (4 * n) + 2 * n * z ** (2 * n + 1) - 2 * n * z ** (2 * n - 1) - 1
        assert (z - 1) * (z + 1) ** 3 * cleared == expected, n


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
