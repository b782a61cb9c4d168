"""Squarefree decomposition and factorization over Q.

Zassenhaus route for a primitive squarefree integer polynomial F:

* Split F by distinct degree modulo each of the first MODULAR_PRIMES usable
  primes up to 83, in the byte kernel of cvtk.ratpoly (_gfb_*).  The
  Frobenius columns x^(j p) mod f are built once per prime, each the
  remainder (_gfb_rem) of x^p times the one before, and h -> h^p is a sum
  of translated columns.  A factor of F over Q has a degree that is a
  subset sum of the modular factor degrees for every prime, so when the
  intersection of these degree sets is {0, deg F}, F is irreducible with no
  lifting (Musser 1975).  An input with no usable prime up to 83 raises
  ExactArithError.
* Otherwise take the prime with the fewest modular factors, split them with
  Cantor-Zassenhaus equal-degree factorization, Hensel-lift them to twice
  the Mignotte bound, and recombine subsets by trial division.  A subset is
  tried only if its degree lies in the degree set and its constant term
  passes the trailing-coefficient test (Abbott, Shoup and Zimmermann 2000);
  more than RECOMBINATION_BUDGET subsets raise ExactArithError, and so does
  an equal-degree split that finds no factor in EDF_DRAW_BUDGET draws.

Deterministic: fixed RNG seed, deterministic prime choice, factors sorted
canonically.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import isqrt

from . import Record
from .ratpoly import (
    _GFB_PRIMES,
    ExactArithError,
    UniPoly,
    _gf_add,
    _gf_divmod,
    _gf_gcdex,
    _gf_mul,
    _gf_pow_mod,
    _gf_red,
    _gf_sub,
    _gfb,
    _gfb_deriv,
    _gfb_divmod,
    _gfb_gcd,
    _gfb_monic,
    _gfb_rem,
    _gfb_tables,
    _trim,
    poly_gcd,
)


# Usable primes (not dividing the leading coefficient, squarefree image)
# tried before lifting.  For n <= 32, G_n and every meridian polynomial but
# one are proven irreducible by at most 6 of them; the n = 9 meridian
# polynomial needs 9, so factoring it lifts 3 modular factors.  The report
# factors meridian polynomials only when no non-square witness proves them
# irreducible, which has not happened for any n tested.
MODULAR_PRIMES = 8

# Subsets of lifted factors tried in recombination before giving up.  Most
# fail the degree or trailing-coefficient test at a few microseconds each, so
# the cap bounds the search to about a second.
RECOMBINATION_BUDGET = 100_000

# Random draws tried per equal-degree split before giving up.  A draw splits
# a product of two or more irreducibles of degree d with probability at least
# 4/9, so a valid input runs out of draws with probability below 1e-16; an
# input that is not such a product never splits, and raises ExactArithError.
EDF_DRAW_BUDGET = 64


def iter_primes():
    """2, 3, 5, 7, ... by trial division; plenty for desk-scale work."""
    yield 2
    yield 3
    found = [3]
    c = 3
    while True:
        c += 2
        for p in found:
            if p * p > c:
                found.append(c)
                yield c
                break
            if c % p == 0:
                break


def _gfb_frobenius(f, p):
    """Column j < deg f of the Frobenius matrix of a monic byte polynomial f
    mod p: x^(j*p) mod f, the remainder of x^p times column j - 1."""
    cols = [b"\1"]
    for _ in range(2, len(f)):
        cols.append(_gfb_rem(bytes(p) + cols[-1], f, p))
    return cols


def _gfb_frobenius_map(h, cols, p):
    """h^p mod f from the Frobenius columns of f: the sum over j of column j
    translated by h_j (von zur Gathen and Gerhard, 14.2, 14.8).

    The sum keeps every residue in its byte: after a reduction a byte holds
    at most p - 1, and each added column at most p - 1 more, so the sum is
    reduced after every 255 // (p - 1) - 1 columns."""
    rows = _gfb_tables(p)
    mod = rows[1]
    n = len(cols)
    headroom = 255 // (p - 1) - 1
    acc = 0
    left = headroom
    for c, col in zip(h, cols):
        if c:
            acc += int.from_bytes(col.translate(rows[c]), "little")
            left -= 1
            if not left:
                acc = int.from_bytes(acc.to_bytes(n, "little").translate(mod), "little")
                left = headroom
    return acc.to_bytes(n, "little").translate(mod).rstrip(b"\0")


def _gfb_ddf(f, p):
    """Distinct-degree split of a monic squarefree byte polynomial f mod a
    prime in _GFB_PRIMES: [(product, degree)], as sympy's gf_ddf_zassenhaus.
    h = x^(p^i) mod f comes from the Frobenius columns, built once; it stays
    reduced mod the original f, which every later f divides."""
    cols = _gfb_frobenius(f, p)
    out = []
    h = b"\0\1"
    i = 1
    while len(f) - 1 >= 2 * i:
        h = _gfb_frobenius_map(h, cols, p)
        hx = bytearray(h.ljust(2, b"\0"))  # h - x
        hx[1] = (hx[1] - 1) % p
        g = _gfb_gcd(bytes(hx).rstrip(b"\0"), f, p)
        if len(g) > 1:
            out.append((g, i))
            f = _gfb_divmod(f, g, p)[0]
        i += 1
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _gf_edf(f, d, p, rng):
    """Cantor-Zassenhaus equal-degree split into monic irreducibles."""
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if len(g) - 1 == d:
            out.append(g)
            continue
        for _ in range(EDF_DRAW_BUDGET):
            t = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
            if len(t) < 2:
                continue
            if p == 2:
                w = t
                trace = t
                for _ in range(d - 1):
                    w = _gf_pow_mod(w, 2, g, 2)
                    trace = _gf_add(trace, w, 2)
                cand = list(_gfb_gcd(bytes(trace), bytes(g), 2))
            else:
                e = (p ** d - 1) // 2
                w = _gf_pow_mod(t, e, g, p)
                cand = list(_gfb_gcd(bytes(_gf_sub(w, [1], p)), bytes(g), p))
            if 0 < len(cand) - 1 < len(g) - 1:
                stack.append(cand)
                stack.append(_gf_divmod(g, cand, p)[0])
                break
        else:
            raise ExactArithError(
                f"no degree-{d} split of a degree-{len(g) - 1} factor mod {p} "
                f"in {EDF_DRAW_BUDGET} draws"
            )
    return out


# -- Hensel lifting (ascending int lists, coefficients in [0, m)) -------------


def _hensel_step(m, f, g, h, s, t):
    """One quadratic lift: from f = g*h, s*g + t*h = 1 (mod m) to mod m*m.
    h stays monic; g carries lc(f)."""
    m2 = m * m
    e = _gf_sub(_gf_red(f, m2), _gf_mul(g, h, m2), m2)
    q, r = _gf_divmod(_gf_mul(s, e, m2), h, m2)
    g1 = _gf_add(_gf_add(g, _gf_mul(t, e, m2), m2), _gf_mul(q, g, m2), m2)
    h1 = _gf_add(h, r, m2)
    b = _gf_sub(_gf_add(_gf_mul(s, g1, m2), _gf_mul(t, h1, m2), m2), [1], m2)
    c, d = _gf_divmod(_gf_mul(s, b, m2), h1, m2)
    s1 = _gf_sub(s, d, m2)
    t1 = _gf_sub(_gf_sub(t, _gf_mul(t, b, m2), m2), _gf_mul(c, g1, m2), m2)
    return g1, h1, s1, t1


def _hensel_lift(f, facs, p, l):
    """Lift monic mod-p factors of f (= lc(f) * prod(facs) mod p) to monic
    factors mod p**l whose product is f/lc(f) mod p**l. Binary-tree recursion."""
    pl = p ** l
    if len(facs) == 1:
        lcinv = pow(f[-1] % pl, -1, pl)
        return [_gf_red([c * lcinv for c in f], pl)]
    k = len(facs) // 2
    left, right = facs[:k], facs[k:]
    g = [f[-1] % p]
    for fac in left:
        g = _gf_mul(g, fac, p)
    h = [1]
    for fac in right:
        h = _gf_mul(h, fac, p)
    s, t = _gf_gcdex(g, h, p)
    m = p
    while m < pl:
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m = m * m
    return _hensel_lift(g, left, p, l) + _hensel_lift(h, right, p, l)


def _sym(a, m):
    half = m // 2
    return [c - m if c > half else c for c in a]


def _zassenhaus(F: UniPoly):
    """Irreducible factors of a primitive squarefree integer polynomial."""
    n = F.degree
    if n == 1:
        return [F]
    fz = F.num
    b = fz[-1]
    rng = random.Random(0x5EED + n)
    # Bit k of `degrees` is set while k may still be the degree of a factor
    # over Q.  The distinct-degree split alone gives the modular degrees; only
    # the prime kept for lifting is split into irreducibles.
    degrees = (1 << (n + 1)) - 1
    best = None
    usable = 0
    for q in _GFB_PRIMES:
        if usable == MODULAR_PRIMES:
            break
        if b % q == 0:
            continue
        fq = _gfb_monic(_gfb(fz, q), q)
        if len(_gfb_gcd(fq, _gfb_deriv(fq, q), q)) != 1:
            continue
        usable += 1
        split = _gfb_ddf(fq, q)
        count = 0
        sums = 1
        for g, d in split:
            for _ in range((len(g) - 1) // d):
                sums |= sums << d
                count += 1
        degrees &= sums
        if degrees == 1 | 1 << n:
            return [F]  # Musser's certificate: no proper factor degree is left
        if best is None or count < best[0]:
            best = (count, q, split)
    if best is None:
        raise ExactArithError(
            f"no usable prime up to {_GFB_PRIMES[-1]} for a degree-{n} polynomial: "
            "each divides its leading coefficient or its discriminant"
        )
    _, p, split = best
    facs = sorted(h for g, d in split for h in _gf_edf(list(g), d, p, rng))
    maxnorm = max(abs(c) for c in fz)
    mignotte = (isqrt(n + 1) + 1) * (1 << n) * maxnorm * abs(b)
    l = 1
    while p ** l <= 4 * mignotte:
        l += 1
    pl = p ** l
    lifted = _hensel_lift(fz, facs, p, l)
    result = []
    cur = F
    cands = list(range(len(lifted)))
    size = 1
    tried = 0
    while 2 * size <= len(cands):
        progress = False
        lc = int(cur.lc)
        target = lc * int(cur[0])
        for sub in itertools.combinations(cands, size):
            tried += 1
            if tried > RECOMBINATION_BUDGET:
                raise ExactArithError(
                    f"factor recombination exceeded {RECOMBINATION_BUDGET} subsets: "
                    f"degree {n}, prime {p}, {len(facs)} modular factors"
                )
            if not degrees >> sum(len(lifted[i]) - 1 for i in sub) & 1:
                continue
            # Trailing-coefficient test: the constant term of a true factor
            # (scaled to leading coefficient lc) divides lc * cur(0).
            g0 = lc
            for i in sub:
                g0 = g0 * lifted[i][0] % pl
            if g0 > pl // 2:
                g0 -= pl
            if target % g0 if g0 else target:
                continue
            prod = [lc]
            for i in sub:
                prod = _gf_mul(prod, lifted[i], pl)
            g = UniPoly(_sym(prod, pl), F.var).primitive()
            if g.degree < 1:
                continue
            q, r = divmod(cur, g)
            if r.is_zero:
                result.append(g)
                cur = q.primitive()
                cands = [i for i in cands if i not in sub]
                progress = True
                break
        if not progress:
            size += 1
    if cur.degree >= 1:
        result.append(cur)
    return result


# -- public surface ------------------------------------------------------------


class Factorization(Record):
    """unit * prod(poly**mult) with monic irreducible polys, sorted."""

    unit: Fraction
    factors: tuple  # of (UniPoly, int)


def squarefree_part(p: UniPoly) -> UniPoly:
    """Monic product of the distinct irreducible factors: p / gcd(p, p')."""
    if p.is_zero:
        raise ExactArithError("squarefree part of zero")
    if p.degree == 0:
        return UniPoly.const(1, p.var)
    return p.exact_div(poly_gcd(p, p.derivative())).monic()


def squarefree_decomposition(p: UniPoly):
    """Yun's algorithm: (unit, [(monic squarefree s_i, i)]) with
    p = unit * prod s_i**i and the s_i pairwise coprime."""
    if p.is_zero:
        raise ExactArithError("squarefree decomposition of zero")
    unit = p.lc
    f = p.monic()
    out = []
    if f.degree == 0:
        return unit, out
    g = poly_gcd(f, f.derivative())
    c = f.exact_div(g)
    d = f.derivative().exact_div(g) - c.derivative()
    i = 1
    while c.degree > 0:
        a = poly_gcd(c, d)
        if a.degree > 0:
            out.append((a, i))
        c = c.exact_div(a)
        d = d.exact_div(a) - c.derivative()
        i += 1
    return unit, out


def factor_over_rationals(p: UniPoly) -> Factorization:
    """Complete factorization into monic irreducibles over Q."""
    if p.is_zero:
        raise ExactArithError("factorization of zero")
    unit = p.lc
    if p.degree == 0:
        return Factorization(unit, ())
    factors = []
    _, parts = squarefree_decomposition(p)
    for part, mult in parts:
        for irr in _zassenhaus(part.primitive()):
            factors.append((irr.monic(), mult))
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs, fm[1]))
    return Factorization(unit, tuple(factors))
