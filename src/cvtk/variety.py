"""Plane models of the character variety of the knot group
<a, b | a w^n = w^n b>, w = (a b^-1)^n (a^-1 b)^n, for n >= 2.

Irreducible SL(2, C) characters of this group are pinned down by two traces,
and two coordinate systems are used for them:

* the (r, x) model, r = tr(ab^-1) and x = tr(a) = tr(b), cut out by a single
  polynomial F(r, x) built from the trace of the group relator;
* the (r, t) model, t = tr(ab), cut out by
  D(r, t) = g_{n+1}(r) g_n(t) - g_n(r) g_{n+1}(t).

D is antisymmetric, so the line r = t splits off; the quotient by (r - t)
is symmetric of total degree 2n - 2 (degree n - 1 in each variable) and is
the model of the component that does not contain the characters with t = r.

The two models are tied together by t viewed as a function on the (r, x)
model, t = (2 - r)(x^2 - 2 - r) f_n(r)^2 + 2, which factors through the
double covering (r, x) -> (r, y) = (r, x^2 - 2) followed by the birational
map (r, y) -> (r, (2 - r)(y - r) f_n(r)^2 + 2).

F is written once, as x_relation(n, r, x^2): a function of r and x^2 over
any commutative ring, with t taken from the birational map.  Evaluated at
the BiPoly generators it expands to x_variety_poly(n); evaluated at r = 2
it gives the point check of the reducible character and, with x^2 = X*X for
a UniPoly X, the restriction F(2, x) = n^2 (4 - x^2) - 1, without expanding
the bivariate F.

The module also carries the plane Bezout bookkeeping for the frozen n = 2
and n = 3 component pairs: total intersection number of the two components,
the affine part (computed from eliminants, with spurious resultant factors
coming from common leading-coefficient roots stripped), and the rest, which
sits at ideal points.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import lcm

from . import Record
from .cheb import f_values, g_poly, require_family_index
from .golden import default_fixtures
from .ratpoly import BiPoly, UniPoly, poly_gcd, resultant_in
from .trace import VerificationError

RX = ("r", "x")
RT = ("r", "t")


def x_relation(n: int, r, x_squared):
    """F(r, x) as a function of (r, x^2), over any commutative ring.

    F = f_n(t) * (f_n(r) g_n(r) (2 + r - x^2) - 1) + f_{n-1}(t)
    with t the second coordinate of birational_image(n, (r, x^2 - 2)),
    which also rejects an n that is not an integer >= 2.  The f_j values
    come from one `cheb.f_values` table at r and one at t, and g_n(r) is
    f_n(r) - f_{n-1}(r), so on the X model f_n(t) and f_{n-1}(t) together
    cost one BiPoly product per index.
    """
    _, t = birational_image(n, (r, x_squared - 2))
    fr = f_values(r, n)
    ft = f_values(t, n)
    fn_r = fr[n + 1]
    return ft[n + 1] * (fn_r * (fn_r - fr[n]) * (2 + r - x_squared) - 1) + ft[n]


def x_variety_poly(n: int) -> BiPoly:
    """Defining polynomial F(r, x) of the (r, x) model: x_relation expanded."""
    x = BiPoly.gen("x", RX)
    return x_relation(n, BiPoly.gen("r", RX), x * x)


def d_variety_poly(n: int) -> BiPoly:
    """Defining polynomial D(r, t) = g_{n+1}(r) g_n(t) - g_n(r) g_{n+1}(t).

    Built row by row on the integer numerators: with A = g_{n+1} and
    B = g_n, the coefficient of t^j is b_j A(r) - a_j B(r), where a_j and
    b_j are the coefficients of u^j in A and B.
    """
    require_family_index(n)
    A, B = g_poly(n + 1).num, g_poly(n).num
    rows = [
        UniPoly.from_ints([bj * x - aj * y for x, y in zip_longest(A, B, fillvalue=0)], 1, "r")
        for aj, bj in zip_longest(A, B, fillvalue=0)
    ]
    return BiPoly.from_coeff_list(rows, "t", RT)


class ComponentPair(Record):
    """D(r, t) split as line * quotient, with line = r - t."""

    n: int
    d_poly: BiPoly
    line: BiPoly
    quotient: BiPoly


def d_split(n: int) -> ComponentPair:
    """Split (r - t) off D(r, t); the division must be exact.

    D = sum D_i(t) r^i is brought to one common denominator and divided by
    r - t on its integer grid, by synthetic division in r at r = t:
    q_{m-1} = D_m and q_{i-1} = D_i + t q_i, each a coefficient list in t.
    The remainder D_0 + t q_0 must be zero.
    """
    D = d_variety_poly(n)
    den = lcm(*(row.den for row in D.rows))
    # cols[i] lists the coefficients of D_i(t), the coefficient of r^i
    cols = zip_longest(*([c * (den // row.den) for c in row.num] for row in D.rows), fillvalue=0)
    acc, quot = [], []
    for col in reversed(list(cols)):
        acc = [c + s for c, s in zip_longest(col, [0, *acc], fillvalue=0)]
        quot.append(acc)
    if any(acc):
        raise VerificationError(
            "hard invariant violated: (r - t) does not divide D(r, t) "
            f"for n = {n}"
        )
    # quot holds q_{m-1}, ..., q_0 and then the remainder; row k of the
    # quotient is its t^k coefficient
    rows = [UniPoly.from_ints(row, den, "r") for row in zip_longest(*reversed(quot[:-1]), fillvalue=0)]
    line = BiPoly.gen("r", RT) - BiPoly.gen("t", RT)
    return ComponentPair(n, D, line, BiPoly.from_coeff_list(rows, "t", RT))


def birational_image(n: int, point):
    """The birational map (r, y) -> (r, (2 - r)(y - r) f_n(r)^2 + 2).

    Works over any commutative ring containing the coordinates; at
    y = x^2 - 2 it gives t = tr(ab) on the (r, x) model.
    """
    require_family_index(n)
    r, y = point
    fr = f_values(r, n)[n + 1]
    return (r, (2 - r) * (y - r) * fr * fr + 2)


def meridian_derivative_at_two(n: int) -> UniPoly:
    """The x-partial of F(r, x) restricted to r = 2, as a polynomial in x.

    On the line r = 2 this collapses to -2 n^2 x, which is the source of the
    x^2 = (4n^2 - 1)/n^2 coordinate of the reducible intersection character.
    r = 2 is substituted before differentiating, so F is never expanded.
    """
    X = UniPoly.gen("x")
    return x_relation(n, Fraction(2), X * X).derivative()


class BezoutBudget(Record):
    """Intersection counts of the two components of the (r, x) model."""

    n: int
    total: int
    affine: int
    ideal: int
    r_eliminant: UniPoly
    x_eliminant: UniPoly


def _strip_common_lc_roots(elim: UniPoly, lc0: UniPoly, lc1: UniPoly) -> UniPoly:
    """Remove eliminant factors supported on common roots of the two leading
    coefficients; those come from the resultant construction, not from
    intersection points."""
    junk = poly_gcd(lc0, lc1)
    while junk.degree > 0:
        g = poly_gcd(elim, junk)
        if g.degree == 0:
            break
        elim = elim.exact_div(g)
    return elim


def bezout_budget(n: int, fixtures: dict = None) -> BezoutBudget:
    """Total/affine/ideal intersection counts of the two component curves.

    The component pair is only known in closed form for n = 2 and n = 3
    (the frozen fixtures); the total is the product of the total degrees,
    the affine count is the degree of the cleaned r-eliminant, and the ideal
    count is the difference.
    """
    fx = (fixtures or default_fixtures()).get(n)
    if fx is None:
        raise ValueError(f"no frozen component pair for n = {n}")
    X0, X1 = fx.X0, fx.X1
    total = X0.total_degree() * X1.total_degree()

    elim_r = resultant_in(X0, X1, "x")
    lc0 = X0.coeff_list_in("x")[-1]
    lc1 = X1.coeff_list_in("x")[-1]
    elim_r = _strip_common_lc_roots(elim_r, lc0, lc1).primitive()

    elim_x = resultant_in(X0, X1, "r").primitive()
    affine = elim_r.degree
    return BezoutBudget(n, total, affine, total - affine, elim_r, elim_x)
