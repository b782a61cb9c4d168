"""Irreducibility certificates over Q, and squarefree parts.

Musser's degree-set certificate (Musser 1975) for an integer polynomial F of
degree n.  A prime p is usable when it does not divide the leading
coefficient and F mod p is squarefree; then F is squarefree over Q too.
Split F by distinct degree modulo each usable prime up to 83, in the byte
kernel of cvtk.ratpoly (_gfb_*).  The Frobenius columns x^(j p) mod f are
built once per prime, each the remainder (_gfb_rem) of x^p times the one
before, and h -> h^p is a sum of translated columns.  A factor of F over Q
has a degree that is a subset sum of the modular factor degrees for every
prime, so when the intersection of these degree sets is {0, n}, F is
irreducible.  The primes are tried in increasing order until that holds;
the bound 83 is the byte kernel's.  An input with no usable prime up to 83
raises ExactArithError.

The certificate proves irreducibility and never disproves it: a reducible
F, or an irreducible one that splits modulo every prime (a Swinnerton-Dyer
polynomial), leaves a proper degree in the set.  Deterministic: the primes
and their order are fixed.
"""

from __future__ import annotations

from . import Record
from .ratpoly import (
    _GFB_PRIMES,
    ExactArithError,
    UniPoly,
    _gfb,
    _gfb_deriv,
    _gfb_divmod,
    _gfb_gcd,
    _gfb_monic,
    _gfb_rem,
    _gfb_tables,
    poly_gcd,
)


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


# -- public surface ------------------------------------------------------------


class MusserCertificate(Record):
    """Musser's certificate for a polynomial of the given degree: the usable
    primes tried, in order, and the degrees of the modular irreducible
    factors at each, ascending.  `holds` when the subset sums common to
    every prime's degrees are only 0 and the degree, which proves the
    polynomial irreducible over Q."""

    degree: int
    primes: tuple
    patterns: tuple
    holds: bool


def musser_certificate(F: UniPoly) -> MusserCertificate:
    """Musser's certificate for F of degree >= 1, from the usable primes up
    to 83, tried in order until it holds."""
    n = F.degree
    if n < 1:
        raise ExactArithError(f"irreducibility certificate of a degree-{n} polynomial")
    fz = F.primitive().num
    full = 1 | 1 << n
    # Bit k of `degrees` is set while k may still be the degree of a factor.
    degrees = (1 << (n + 1)) - 1
    primes, patterns = [], []
    for p in _GFB_PRIMES:
        if fz[-1] % p == 0:
            continue
        f = _gfb_monic(_gfb(fz, p), p)
        if len(_gfb_gcd(f, _gfb_deriv(f, p), p)) != 1:
            continue
        pattern = tuple(d for g, d in _gfb_ddf(f, p) for _ in range((len(g) - 1) // d))
        sums = 1
        for d in pattern:
            sums |= sums << d
        degrees &= sums
        primes.append(p)
        patterns.append(pattern)
        if degrees == full:
            break
    if not primes:
        raise ExactArithError(
            f"no usable prime up to {_GFB_PRIMES[-1]} for a degree-{n} polynomial: "
            "each divides its leading coefficient or its discriminant"
        )
    return MusserCertificate(n, tuple(primes), tuple(patterns), degrees == full)


def squarefree_part(p: UniPoly) -> UniPoly:
    """Monic product of the distinct irreducible factors: p / gcd(p, p')."""
    if p.is_zero:
        raise ExactArithError("squarefree part of zero")
    if p.degree == 0:
        return UniPoly.const(1, p.var)
    return p.exact_div(poly_gcd(p, p.derivative())).monic()
