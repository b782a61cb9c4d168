"""Tests for the peripheral trace calculus.

The strongest oracle here is exact 2x2 matrices with rational entries:
A = (mu 1; 0 1/mu), B = (mu 0; s 1/mu) with mu, s rational give exact
Fraction traces for any word, with no relator imposed, so every formula is
checked as a ring identity rather than just at special points.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from cvtk.cheb import G_poly, f_values
from cvtk.factor import musser_certificate
from cvtk.intersect import x_squared_at
from cvtk.numfield import NumberField
from cvtk.ratpoly import UniPoly
from cvtk.trace import (
    SlopeVerdict,
    TraceContext,
    VerificationError,
    alexander_poly,
    boundary_slope_candidates,
    delta,
    detect_surface,
    gamma_closed,
    gamma_seifert_form,
    longitude_integrality,
    longitude_trace,
    longitude_value,
    reducible_character,
    seifert_traces,
    tr_commutator,
)
from cvtk.trace import _tr_power_from


# --- exact rational matrix oracle -----------------------------------------


def _mul(*Ms):
    out = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    for M in Ms:
        (a, b), (c, d) = out
        (e, f), (g, h) = M
        out = ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
    return out


def _inv(M):
    (a, b), (c, d) = M
    return ((d, -b), (-c, a))  # SL2 adjugate


def _tr(M):
    return M[0][0] + M[1][1]


def _pow(M, k):
    if k < 0:
        return _pow(_inv(M), -k)
    out = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    for _ in range(k):
        out = _mul(out, M)
    return out


def _slice_point(rng):
    mu = Fraction(rng.randint(1, 7), rng.randint(1, 7))
    s = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    A = ((mu, Fraction(1)), (Fraction(0), 1 / mu))
    B = ((mu, Fraction(0)), (s, 1 / mu))
    x = mu + 1 / mu
    return A, B, x * x, 2 - s  # (A, B, x^2, r) with r = tr(A B^-1)


def tr_power(tau, k):
    """tr(M^k) for tr(M) = tau, read off an f_values table as the trace code does."""
    return _tr_power_from(f_values(tau, k + 1), k)


def test_tr_power_symbolic():
    u = UniPoly.gen("u")
    assert tr_power(u, 0) == UniPoly.const(2)
    assert tr_power(u, 1) == u
    assert tr_power(u, 2) == u * u - 2
    assert tr_power(u, 3) == u ** 3 - 3 * u


def test_tr_power_matches_matrix_powers():
    rng = random.Random(31)
    for _ in range(5):
        A, B, _, _ = _slice_point(rng)
        M = _mul(A, _inv(B))
        tau = _tr(M)
        for k in range(0, 7):
            assert tr_power(tau, k) == _tr(_pow(M, k))


def test_tr_commutator_identity_trivial():
    assert tr_commutator(Fraction(2), Fraction(2), Fraction(2)) == 2


def test_tr_commutator_vs_numeric_matrices():
    rng = random.Random(32)
    for _ in range(100):
        a = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        e = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        f = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        g = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        P = ((a, b), (c, (1 + b * c) / a))
        Q = ((e, f), (g, (1 + f * g) / e))
        Qi = ((Q[1][1], -Q[0][1]), (-Q[1][0], Q[0][0]))
        Pi = ((P[1][1], -P[0][1]), (-P[1][0], P[0][0]))
        def m(M, N):
            return (
                (M[0][0] * N[0][0] + M[0][1] * N[1][0], M[0][0] * N[0][1] + M[0][1] * N[1][1]),
                (M[1][0] * N[0][0] + M[1][1] * N[1][0], M[1][0] * N[0][1] + M[1][1] * N[1][1]),
            )
        K = m(m(P, Qi), m(Pi, Q))
        direct = K[0][0] + K[1][1]
        PQi = m(P, Qi)
        formula = tr_commutator(P[0][0] + P[1][1], Q[0][0] + Q[1][1], PQi[0][0] + PQi[1][1])
        assert abs(direct - formula) < 1e-9


def test_context_formulas_are_slice_identities():
    """t, delta_11, delta recursion, gamma closed form, and the longitude
    commutator value all match exact matrix traces with no relator imposed.
    The slice points have t != r, so the context keeps a second f table."""
    rng = random.Random(33)
    for n in (2, 3, 4):
        for _ in range(3):
            A, B, x2, r = _slice_point(rng)
            ab = _mul(A, _inv(B))
            w = _mul(_pow(ab, n), _pow(_mul(_inv(A), B), n))
            ctx = TraceContext(n, r, x2)
            assert ctx.t == _tr(w)
            assert (ctx.t_table is ctx.r_table) == (ctx.t == ctx.r)
            assert ctx.delta_11 == _tr(_mul(w, _inv(ab)))
            # d and e run past the f tables' f_{n+1}, so they are extended
            for d in range(0, n + 4):
                for e in range(0, n + 4):
                    exact = _tr(_mul(_pow(w, d), _pow(ab, -e)))
                    assert delta(d, e, ctx) == exact
                    assert gamma_closed(d, e, ctx) == exact
            s1 = _pow(w, n)
            s2 = _pow(ab, n)
            L = _mul(s1, _inv(s2), _inv(s1), s2)
            tau = tr_commutator(_tr(s1), _tr(s2), seifert_traces(ctx)[2])
            assert tau == _tr(L)


def test_delta_gamma_agree_in_locus_fields():
    for n in range(2, 7):
        G = UniPoly(G_poly(n).coeffs, "r")
        assert musser_certificate(G).holds
        field = NumberField(G.monic())
        r = field.gen()
        x2 = x_squared_at(SimpleNamespace(n=n, field=field, r_elem=r))
        ctx = TraceContext(n, r, x2)
        assert ctx.t == r
        assert (ctx.t_table is ctx.r_table) == (ctx.t == ctx.r)
        for d in range(0, n + 4):
            for e in range(0, n + 4):
                assert delta(d, e, ctx) == gamma_closed(d, e, ctx)
        assert gamma_seifert_form(ctx) == seifert_traces(ctx)[2]


def test_delta_11_value_n2():
    field = NumberField(UniPoly([2, -2, 1], "r"))
    r = field.gen()
    x2 = (3 * r + 3) * Fraction(1, 2)
    ctx = TraceContext(2, r, x2)
    assert ctx.t == r
    assert delta(1, 1, ctx) == 2 * r - 1
    # under r -> 1+i the element 2r - 1 is 1 + 2i
    z = complex(1, 1)
    val = sum(complex(c) * z ** k for k, c in enumerate(delta(1, 1, ctx).coeffs))
    assert abs(val - complex(1, 2)) < 1e-12


def test_delta_rejects_negative_indices():
    ctx = TraceContext(2, Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        delta(-1, 0, ctx)
    with pytest.raises(ValueError):
        gamma_closed(0, -2, ctx)


def test_longitude_min_polys_frozen():
    for n, expect in (
        (2, UniPoly([772, -28, 1], "l")),
        (3, UniPoly([8647328, -385360, 15768, -212, 1], "l")),
    ):
        G = UniPoly(G_poly(n).coeffs, "r")
        assert musser_certificate(G).holds
        field = NumberField(G.monic())
        r = field.gen()
        locus = SimpleNamespace(n=n, field=field, r_elem=r)
        locus.x_squared = x_squared_at(locus)
        tau, min_poly, verdict = longitude_trace(locus)
        assert min_poly == expect
        assert verdict.is_algebraic_integer
        if n == 2:
            assert tau == -24 * r + 38


def test_longitude_rational_path_raises_on_nonintegral():
    # Synthetic rational character: r = 1/3 makes the longitude trace a
    # non-integer rational, whose minimal polynomial must trip the
    # verification error.
    tau = longitude_value(TraceContext(2, Fraction(1, 3), Fraction(1, 7)))
    assert tau.denominator > 1
    with pytest.raises(VerificationError, match="not an algebraic integer"):
        longitude_integrality(2, UniPoly([-tau, 1], "l"))


def test_reducible_character_values():
    rc2 = reducible_character(2)
    assert rc2.x_squared == Fraction(15, 4)
    assert rc2.meridian_verdict.bad_primes == (2,)
    rc3 = reducible_character(3)
    assert rc3.x_squared == Fraction(35, 9)
    assert rc3.meridian_verdict.bad_primes == (3,)
    for rc in (rc2, rc3):
        assert (rc.s1_trace, rc.s2_trace, rc.s1s2inv_trace) == (2, 2, 2)
        assert rc.longitude_trace == 2
        assert not rc.meridian_verdict.is_algebraic_integer


def test_alexander_poly():
    p2, d2 = alexander_poly(2)
    assert p2 == UniPoly([4, -7, 4], "t") and d2 == -15
    p3, d3 = alexander_poly(3)
    assert p3 == UniPoly([9, -17, 9], "t") and d3 == -35
    for n in range(2, 21):
        p, disc = alexander_poly(n)
        assert p(Fraction(1)) == 1
        assert disc == 1 - 4 * n * n < 0


def test_boundary_slopes():
    for n, expect in ((2, [-14, -8, -8, 0]), (3, [-22, -12, -12, 0])):
        cands = boundary_slope_candidates(n)
        assert [c.slope for c in cands] == expect
        zero = [c for c in cands if c.slope == 0]
        assert len(zero) == 1 and zero[0].tag == "[2n,2n]"
        assert zero[0].expansion == (2 * n, 2 * n)
    c2 = boundary_slope_candidates(2)
    assert c2[0].expansion == (-2, -2, -3, -2, -2)
    assert c2[1].expansion == (-2, -2, -2, 3)
    assert c2[2].expansion == (3, -2, -2, -2)


def test_detect_surface_synthetic():
    """The verdict read off the meridian alone; the locus carries no
    longitude attribute, so detection reads none."""
    nonintegral = SimpleNamespace(is_algebraic_integer=False)
    integral = SimpleNamespace(is_algebraic_integer=True)

    def locus(mer):
        return SimpleNamespace(meridian_certified=False, meridian_verdict=mer)

    v = detect_surface(locus(nonintegral))
    assert v.detected_slope == 0 and v.surface_description == "genus 1 Seifert surface"
    assert isinstance(v, SlopeVerdict) and v.longitude_integral
    v = detect_surface(locus(integral))
    assert v.detected_slope == "undetermined" and v.meridian_integral
    assert v.surface_description == (
        "no slope detected: meridian integral status True, longitude integral status True"
    )


def test_detect_surface_reads_certificates_first():
    """A holding certificate is final: no verdict of a certified locus is
    read, not even one already computed (the locus raises on a contradicting
    verdict itself); an uncertified locus is read by its verdict."""

    class Certified:
        meridian_certified = True

        @property
        def meridian_verdict(self):
            raise AssertionError("the verdict of a certified locus was read")

    v = detect_surface(Certified())
    assert v.detected_slope == 0
    integral = SimpleNamespace(is_algebraic_integer=True)
    computed = SimpleNamespace(meridian_certified=True, meridian_verdict=integral)
    v = detect_surface(computed)
    assert v.detected_slope == 0 and not v.meridian_integral
    uncertified = SimpleNamespace(meridian_certified=False, meridian_verdict=integral)
    v = detect_surface(uncertified)
    assert v.detected_slope == "undetermined" and v.meridian_integral
