"""Tests for the plane models and their interplay.

The frozen n = 2 and n = 3 component pairs act as the oracle for the
constructed defining polynomial F; the split of D is checked against direct
evaluation, which is an oracle independent of the division routine.
"""

import random
from fractions import Fraction

import pytest

from cvtk.cheb import G_poly, g_poly
from cvtk.factor import squarefree_part
from cvtk.golden import default_fixtures
from cvtk import intersect, variety
from cvtk.intersect import build_intersection_report, intersection_loci
from cvtk.ratpoly import BiPoly, UniPoly
from cvtk.trace import TraceContext, VerificationError
from cvtk.variety import (
    bezout_budget,
    birational_image,
    d_split,
    d_variety_poly,
    meridian_derivative_at_two,
    x_relation,
    x_variety_poly,
)

RT = ("r", "t")
R, T = BiPoly.gen("r", RT), BiPoly.gen("t", RT)


def test_x_variety_matches_frozen_components():
    fx = default_fixtures()
    for n in (2, 3):
        F = x_variety_poly(n)
        assert F.content() == 1
        assert F.primitive() == (fx[n].X0 * fx[n].X1).primitive()


def test_x_variety_matches_sympy_expansion():
    # x_relation evaluated at sympy's own QQ[r, x] generators: sympy expands F
    sympy = pytest.importorskip("sympy")
    r, x = sympy.symbols("r x")
    R, X = (sympy.Poly(v, r, x, domain="QQ") for v in (r, x))
    for n in range(2, 7):
        want = x_relation(n, R, X * X).as_dict()
        got = {tuple(t["exp"]): sympy.Rational(t["coeff"])
               for t in x_variety_poly(n).to_json()["terms"]}
        assert got == want, n


def test_component_records_are_hashable():
    fx = default_fixtures()
    assert len({fx[2], fx[3], default_fixtures()[2]}) == 2
    assert len({d_split(3), d_split(3), d_split(4)}) == 2
    assert hash(x_variety_poly(2).primitive()) == hash((fx[2].X0 * fx[2].X1).primitive())


def test_x_variety_even_in_x():
    for n in range(2, 9):
        assert not any(x_variety_poly(n).rows[1::2])


def test_d_antisymmetric_and_split_degrees():
    for n in range(2, 21):
        pair = d_split(n)
        assert pair.d_poly.exchange_vars() == -pair.d_poly
        assert pair.quotient.exchange_vars() == pair.quotient
        assert pair.quotient.degree_in("r") == n - 1
        assert pair.quotient.degree_in("t") == n - 1
        assert pair.quotient.total_degree() == 2 * n - 2


def test_d_split_against_evaluation():
    rng = random.Random(411)
    for n in range(2, 7):
        pair = d_split(n)
        for _ in range(8):
            r0 = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            t0 = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            lhs = pair.d_poly.eval(r0, t0)
            rhs = (r0 - t0) * pair.quotient.eval(r0, t0)
            assert lhs == rhs


def test_d_matches_the_bipoly_products():
    """The rows of D against g_{n+1}(r) g_n(t) - g_n(r) g_{n+1}(t) formed by
    BiPoly products."""
    for n in range(2, 31):
        gn, gn1 = g_poly(n), g_poly(n + 1)
        A_r, B_r = (BiPoly.from_uni(p.with_var("r"), RT) for p in (gn1, gn))
        A_t, B_t = (BiPoly.from_uni(p.with_var("t"), RT) for p in (gn1, gn))
        assert d_variety_poly(n) == A_r * B_t - B_r * A_t, n


def test_d_split_matches_long_division():
    """The synthetic division on the integer grid against BiPoly.divmod_in."""
    for n in range(2, 41):
        pair = d_split(n)
        q, rem = pair.d_poly.divmod_in(R - T, "r")
        assert rem.is_zero
        assert pair.quotient == q, n
        assert pair.line == R - T


def test_d_split_over_a_denominator_and_with_a_remainder(monkeypatch):
    """A D with rational coefficients is split over its common denominator,
    and one that r - t does not divide raises the invariant failure."""
    good = variety.d_variety_poly
    thirds = {n: d_split(n).quotient * Fraction(1, 3) for n in (2, 5, 9)}
    monkeypatch.setattr(variety, "d_variety_poly", lambda n: good(n) * Fraction(1, 3))
    for n, want in thirds.items():
        pair = d_split(n)
        assert pair.quotient == want == pair.d_poly.divmod_in(R - T, "r")[0], n
    monkeypatch.setattr(variety, "d_variety_poly", lambda n: good(n) + Fraction(1, 2) * T)
    with pytest.raises(VerificationError, match=r"\(r - t\) does not divide D\(r, t\) for n = 4"):
        d_split(4)


def test_d_matches_definition_n2():
    # g_2 = u - 1, g_3 = u^2 - u - 1 by hand.
    r = BiPoly.gen("r", ("r", "t"))
    t = BiPoly.gen("t", ("r", "t"))
    expected = (r * r - r - 1) * (t - 1) - (r - 1) * (t * t - t - 1)
    assert d_variety_poly(2) == expected


def test_reducible_point_on_x_model():
    # F is even in x: its even rows, at X = x^2, give F(2, x) as a polynomial in X
    for n in range(2, 9):
        X = Fraction(4 * n * n - 1, n * n)
        assert sum(row(2) * X ** k for k, row in enumerate(x_variety_poly(n).rows[::2])) == 0


def test_covering_composed_with_birational_is_t_of_rx():
    # TraceContext derives t with its own formula, not the variety module's.
    rng = random.Random(412)
    for n in (2, 3, 4):
        for _ in range(6):
            r0 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            x0 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            step = birational_image(n, (r0, x0 * x0 - 2))
            assert step[0] == r0
            assert step[1] == TraceContext(n, r0, x0 * x0).t


def test_x_relation_at_points_matches_expanded_model():
    rng = random.Random(413)
    for n in range(2, 7):
        F = x_variety_poly(n)
        for _ in range(6):
            r0 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            x0 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            assert x_relation(n, r0, x0 * x0) == F.eval(r0, x0)


def test_point_checks_do_not_expand_the_x_model(monkeypatch):
    def expanded(n):
        raise AssertionError("the bivariate X model was expanded")

    for module in (variety, intersect):
        monkeypatch.setattr(module, "x_variety_poly", expanded, raising=False)
    assert build_intersection_report(4).reducible_on_x_model
    assert meridian_derivative_at_two(4) == UniPoly([0, -32], "x")


def test_intersection_points_map_to_diagonal():
    # Over Q[r]/(G_n(r)), the point (r, y) with y = x^2 - 2 = r - 1/f_n(r)^2
    # maps birationally to t = r exactly.
    for n in (2, 3):
        (locus,) = intersection_loci(n)
        r = locus.r_elem
        y = locus.x_squared - 2
        image = birational_image(n, (r, y))
        assert image[0] == r
        assert image[1] == r


def test_meridian_derivative_at_two():
    for n in range(2, 13):
        expected = UniPoly([0, -2 * n * n], "x")
        assert meridian_derivative_at_two(n) == expected


def test_bezout_budget_counts():
    fx = default_fixtures()
    for n in (2, 3):
        b = bezout_budget(n)
        assert (b.total, b.affine, b.ideal) == fx[n].bezout
        assert b.ideal == b.total - b.affine


def test_bezout_eliminants():
    fx = default_fixtures()
    for n in (2, 3):
        b = bezout_budget(n)
        # Affine r-coordinates are exactly the roots of G_n.
        assert squarefree_part(b.r_eliminant) == UniPoly(G_poly(n).coeffs, "r").monic()
        # The x-eliminant is squarefree and equals the frozen x-polynomial.
        assert b.x_eliminant == fx[n].x_poly
        assert squarefree_part(b.x_eliminant) == b.x_eliminant.monic()


def test_bezout_budget_counts_n2():
    b = bezout_budget(2)
    assert (b.total, b.affine, b.ideal) == (20, 4, 16)
    assert b.r_eliminant.var == "r"


def test_input_validation():
    with pytest.raises(ValueError):
        x_variety_poly(1)
    with pytest.raises(ValueError):
        d_variety_poly(0)
    with pytest.raises(ValueError):
        bezout_budget(4)
