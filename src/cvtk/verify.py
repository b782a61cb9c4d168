"""Named re-verification checks against the frozen reference data.

Every check recomputes a published quantity from scratch and compares it with
the frozen value (or a structural invariant), returning (ok, detail). The
runner prints one fixed-order line per check so a failure names exactly what
broke. Pointing the runner at an edited fixture file must flip at least one
line to FAIL; that negative control is itself part of the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from . import Record
from .cheb import G_poly, f_poly, failed_identities, require_family_index, square_mod_two
from .golden import default_fixtures
from .intersect import build_intersection_report
from .knotgrp import (
    FreeWord,
    complex_roots,
    family_words,
    mat_trace,
    numeric_rep,
    relation_residual,
    relator_check,
    sorted_complex,
    standard_relator,
    two_bridge_word,
    word_eval,
)
from .ratpoly import UniPoly, poly_gcd
from .trace import (
    TraceContext,
    alexander_poly,
    boundary_slope_candidates,
    delta,
    gamma_closed,
)
from .variety import bezout_budget, d_split, meridian_derivative_at_two, x_variety_poly

DEFAULT_MAX_N = 8  # top n of the ranged checks in the full table


class CheckResult(Record):
    name: str
    ok: bool
    detail: str


class VerifyContext:
    """Shared fixtures plus memoized reports so checks reuse heavy work."""

    def __init__(self, fixtures=None, max_n=DEFAULT_MAX_N):
        require_family_index(max_n)
        self.fixtures = default_fixtures() if fixtures is None else fixtures
        self.max_n = max_n
        self._reports = {}
        self._reps = {}

    def report(self, n: int):
        if n not in self._reports:
            self._reports[n] = build_intersection_report(n)
        return self._reports[n]

    def numeric_reps(self, n: int) -> list:
        """The numeric representation at each point of the locus of report n."""
        if n not in self._reps:
            points = self.report(n).locus.points
            self._reps[n] = [numeric_rep(n, r0, x0) for r0, x0, _ in points]
        return self._reps[n]

    def fixture(self, n: int):
        if n not in self.fixtures:
            raise ValueError(f"no fixture for n = {n}")
        return self.fixtures[n]


# ---------------------------------------------------------------------------
# Individual checks. Each takes the context and returns (ok, detail).


def check_cheb_identities(ctx):
    bad = failed_identities(60)
    if bad:
        return False, f"failed at {bad[:3]}"
    return True, "9 identities hold for 2 <= j <= 60"


def check_g_polynomials(ctx):
    u = UniPoly.gen("u")
    ok = G_poly(2) == u ** 2 - 2 * u + 2 and G_poly(3) == u ** 4 - 2 * u ** 3 + 3
    return ok, "G_2 = u^2-2u+2, G_3 = u^4-2u^3+3"


def check_mod2_congruence(ctx):
    for n in range(2, 61):
        if not square_mod_two(G_poly(n), f_poly(n)):
            return False, f"G_n - f_n^2 has an odd coefficient at n = {n}"
    return True, "G_n = f_n^2 mod 2 for 2 <= n <= 60"


def _check_x_variety(ctx, n):
    fx = ctx.fixture(n)
    product = (fx.X0 * fx.X1).primitive()
    computed = x_variety_poly(n).primitive()
    if computed != product:
        return False, "recomputed component product differs from fixture"
    return True, f"X = X0*X1 with x-degrees {fx.X0.degree_in('x')}+{fx.X1.degree_in('x')}"


def check_d_split(ctx):
    for n in range(2, 21):
        pair = d_split(n)
        if pair.quotient.total_degree() != 2 * n - 2:
            return False, f"quotient total degree wrong at n = {n}"
        if pair.quotient != pair.quotient.exchange_vars():
            return False, f"quotient not symmetric at n = {n}"
    return True, "D = (r - t) * D1 with D1 symmetric of total degree 2n-2, n <= 20"


def _check_meridian_exact(ctx, n):
    fx = ctx.fixture(n)
    locus = ctx.report(n).locus
    if locus.x_min_poly != fx.x_poly.with_var("x").monic():
        return False, "meridian minimal polynomial differs from fixture"
    return True, f"degree {locus.x_min_poly.degree} matches fixture"


def check_meridian_nonintegral(ctx):
    for n in range(2, ctx.max_n + 1):
        verdict = ctx.report(n).locus.meridian_verdict
        if verdict.is_algebraic_integer or 2 not in verdict.bad_primes:
            return False, f"meridian trace integral at 2 for n = {n}"
    return True, f"x never integral, 2 always a bad prime, n <= {ctx.max_n}"


def _check_longitude_exact(ctx, n):
    fx = ctx.fixture(n)
    if ctx.report(n).locus.longitude_min_poly != fx.longitude_min_poly.with_var("l"):
        return False, "longitude minimal polynomial differs from fixture"
    return True, f"degree {fx.longitude_min_poly.degree} matches fixture"


def check_longitude_integral(ctx):
    for n in range(2, ctx.max_n + 1):
        if not ctx.report(n).locus.longitude_verdict.is_algebraic_integer:
            return False, f"longitude trace not integral for n = {n}"
    return True, f"longitude trace an algebraic integer, n <= {ctx.max_n}"


def check_slope_verdict(ctx):
    for n in range(2, ctx.max_n + 1):
        slope = ctx.report(n).slope
        if slope.detected_slope != 0:
            return False, f"detected slope {slope.detected_slope} at n = {n}"
        if slope.surface_description != "genus 1 Seifert surface":
            return False, f"unexpected surface at n = {n}: {slope.surface_description}"
    return True, f"boundary slope 0, genus 1 Seifert surface, n <= {ctx.max_n}"


def _check_bezout(ctx, n):
    fx = ctx.fixture(n)
    budget = bezout_budget(n, fixtures=ctx.fixtures)
    got = (budget.total, budget.affine, budget.ideal)
    if got != tuple(fx.bezout):
        return False, f"counts {got} differ from fixture {tuple(fx.bezout)}"
    return True, f"(total, affine, ideal) = {got}"


def _check_eliminants(ctx, n):
    from .factor import squarefree_part

    fx = ctx.fixture(n)
    budget = bezout_budget(n, fixtures=ctx.fixtures)
    sqf = squarefree_part(budget.r_eliminant)
    if sqf != G_poly(n).with_var("r").monic():
        return False, "squarefree r-eliminant is not G_n"
    if budget.x_eliminant != fx.x_poly:
        return False, "x-eliminant differs from fixture"
    if poly_gcd(budget.x_eliminant, budget.x_eliminant.derivative()).degree != 0:
        return False, "x-eliminant is not squarefree"
    return True, "sqfree r-eliminant = G_n; x-eliminant matches fixture, squarefree"


def check_delta_gamma(ctx):
    for n in range(2, 5):
        locus = ctx.report(n).locus
        tctx = TraceContext(n, locus.r_elem, locus.x_squared)
        for d in range(n + 1):
            for e in range(n + 1):
                if delta(d, e, tctx) != gamma_closed(d, e, tctx):
                    return False, f"delta != gamma at (n, d, e) = ({n}, {d}, {e})"
    return True, "delta(d, e) = gamma(d, e) for 0 <= d, e <= n, n <= 4"


def check_relator_numeric(ctx):
    worst, ok = 0.0, True
    for n in (2, 3):
        fam = family_words(n)
        for rep in ctx.numeric_reps(n):
            res, tol = relator_check(rep, fam.relator)
            worst = max(worst, res)
            ok = ok and res < tol
    if not ok:
        return False, f"worst relator residual {worst:.2e}"
    return True, f"worst residual {worst:.2e} over all n = 2, 3 points"


def check_standard_relators(ctx):
    """The relator V a V^-1 b^-1 and the relation V a = b V, both against
    the tolerance of the relator word."""
    worst, ok = 0.0, True
    forms = [family_words(n).two_bridge for n in (2, 3)]
    for n, (p, q) in zip((2, 3), forms):
        rel = standard_relator(p, q)
        V = two_bridge_word(p, q)
        for rep in ctx.numeric_reps(n):
            res, tol = relator_check(rep, rel)
            res = max(res, relation_residual(rep, V * FreeWord("a"), FreeWord("b") * V))
            worst = max(worst, res)
            ok = ok and res < tol
    if not ok:
        return False, f"worst two-bridge residual {worst:.2e}"
    held = " and ".join(f"({p},{q})" for p, q in forms)
    return True, f"{held} hold, worst residual {worst:.2e}"


def check_longitude_numeric(ctx):
    fam = family_words(2)
    sample = None
    for rep in ctx.numeric_reps(2):
        if rep.r.imag < 0:
            sample = rep
    if sample is None:
        return False, "no sample point with Im r < 0"
    tau = mat_trace(word_eval(sample, fam.longitude))
    if abs(tau - (14 + 24j)) >= 1e-6:
        return False, f"longitude trace {tau:.6f} != 14+24i at the sample point"
    fx3 = ctx.fixture(3)
    fam3 = family_words(3)
    traces = sorted_complex(
        mat_trace(word_eval(rep, fam3.longitude)) for rep in ctx.numeric_reps(3)
    )
    expected = complex_roots(fx3.longitude_min_poly)
    if len(traces) != len(expected) or any(
        abs(u - v) >= 1e-6 for u, v in zip(traces, expected)
    ):
        return False, "n = 3 longitude traces do not match the fixture roots"
    return True, "trace 14+24i at the n = 2 sample; n = 3 traces match fixture roots"


def check_reducible(ctx):
    for n in range(2, ctx.max_n + 1):
        rep = ctx.report(n)
        red = rep.reducible
        if not rep.reducible_on_x_model or rep.reducible_is_intersection:
            return False, f"reducible character misplaced at n = {n}"
        if red.x_squared != Fraction(4 * n * n - 1, n * n):
            return False, f"reducible x^2 wrong at n = {n}"
        if (red.s1_trace, red.s2_trace, red.longitude_trace) != (2, 2, 2):
            return False, f"reducible traces wrong at n = {n}"
    return True, f"x^2 = (4n^2-1)/n^2, all traces 2, never on G_n, n <= {ctx.max_n}"


def check_derivative_identity(ctx):
    x = UniPoly.gen("x")
    top = max(ctx.max_n, 4)
    for n in range(2, top + 1):
        if meridian_derivative_at_two(n) != -2 * n * n * x:
            return False, f"dX/dx at r = 2 differs from -2 n^2 x at n = {n}"
    return True, f"dX/dx restricted to r = 2 equals -2 n^2 x for n <= {top}"


def check_alexander(ctx):
    for n in range(2, 21):
        poly, disc = alexander_poly(n)
        expected = UniPoly([n * n, 1 - 2 * n * n, n * n], "t")
        if poly != expected or disc != 1 - 4 * n * n:
            return False, f"Alexander data wrong at n = {n}"
        if poly(Fraction(1)) != 1:
            return False, f"Alexander polynomial not 1 at t = 1 for n = {n}"
    return True, "n^2 t^2 + (1-2n^2) t + n^2, discriminant 1-4n^2, n <= 20"


def _check_r_poly(ctx, n):
    fx = ctx.fixture(n)
    modulus = ctx.report(n).locus.modulus
    if modulus != fx.r_poly.with_var("r").monic():
        return False, "intersection modulus differs from fixture"
    return True, f"modulus product matches fixture (degree {modulus.degree})"


def check_x2_element_n2(ctx):
    locus = ctx.report(2).locus
    r = locus.r_elem
    if locus.x_squared != (3 * r + 3) * Fraction(1, 2):
        return False, "x^2 on the n = 2 locus is not (3r + 3)/2"
    return True, "x^2 = (3r + 3)/2 in Q[r]/(r^2 - 2r + 2)"


def check_slope_candidates(ctx):
    for n in range(2, ctx.max_n + 1):
        cands = boundary_slope_candidates(n)
        slopes = tuple(c.slope for c in cands)
        if slopes != (2 - 8 * n, -4 * n, -4 * n, 0):
            return False, f"candidate slopes {slopes} wrong at n = {n}"
        if cands[3].expansion != (2 * n, 2 * n):
            return False, f"Seifert candidate expansion wrong at n = {n}"
    return True, f"slopes (2-8n, -4n, -4n, 0) with [2n, 2n] Seifert, n <= {ctx.max_n}"


CHECKS = (
    ("cheb-identities", check_cheb_identities),
    ("g-polynomials", check_g_polynomials),
    ("mod2-congruence", check_mod2_congruence),
    ("x-variety-n2", partial(_check_x_variety, n=2)),
    ("x-variety-n3", partial(_check_x_variety, n=3)),
    ("d-split", check_d_split),
    ("meridian-n2-exact", partial(_check_meridian_exact, n=2)),
    ("meridian-n3-exact", partial(_check_meridian_exact, n=3)),
    ("meridian-nonintegral", check_meridian_nonintegral),
    ("longitude-n2-exact", partial(_check_longitude_exact, n=2)),
    ("longitude-n3-exact", partial(_check_longitude_exact, n=3)),
    ("longitude-integral", check_longitude_integral),
    ("slope-verdict", check_slope_verdict),
    ("bezout-n2", partial(_check_bezout, n=2)),
    ("bezout-n3", partial(_check_bezout, n=3)),
    ("eliminants-n2", partial(_check_eliminants, n=2)),
    ("eliminants-n3", partial(_check_eliminants, n=3)),
    ("delta-gamma", check_delta_gamma),
    ("relator-numeric", check_relator_numeric),
    ("standard-relators", check_standard_relators),
    ("longitude-numeric", check_longitude_numeric),
    ("reducible-character", check_reducible),
    ("derivative-identity", check_derivative_identity),
    ("alexander", check_alexander),
    ("r-poly-n2", partial(_check_r_poly, n=2)),
    ("r-poly-n3", partial(_check_r_poly, n=3)),
    ("x2-element-n2", check_x2_element_n2),
    ("slope-candidates", check_slope_candidates),
)


def _run(ctx, names) -> list:
    """The named checks of CHECKS in the given order; exceptions become failures."""
    table = dict(CHECKS)
    results = []
    for name in names:
        try:
            ok, detail = table[name](ctx)
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, ok=ok, detail=detail))
    return results


def run_checks(fixtures=None) -> list:
    """All named checks in fixed order; exceptions become failures."""
    ctx = VerifyContext(fixtures=fixtures)
    return _run(ctx, [name for name, _ in CHECKS])


PROPERTY_CHECKS = (
    "meridian-nonintegral",
    "longitude-integral",
    "slope-verdict",
    "reducible-character",
    "slope-candidates",
)


def run_property_checks(n: int) -> list:
    """Fixture-free invariants for a single n (no frozen data needed)."""
    return _run(VerifyContext(max_n=n), PROPERTY_CHECKS)


def render_results(results) -> str:
    width = max(len(res.name) for res in results)
    lines = []
    for res in results:
        mark = "ok  " if res.ok else "FAIL"
        lines.append(f"{mark}  {res.name.ljust(width)}  {res.detail}")
    passed = sum(1 for res in results if res.ok)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)


def all_passed(results) -> bool:
    return all(res.ok for res in results)
