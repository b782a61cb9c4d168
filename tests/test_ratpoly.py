import random
from fractions import Fraction
from math import gcd as _math_gcd

import pytest

from cvtk import ratpoly
from cvtk.ratpoly import (
    BiPoly,
    ExactArithError,
    UniPoly,
    frac_str,
    poly_gcd,
    resultant_in,
)
from cvtk.ratpoly import _trim


def P(*coeffs, var="u"):
    return UniPoly(coeffs, var)


# -- independent oracles ----------------------------------------------------


def sylvester_resultant(p, q):
    """Resultant as the determinant of the Sylvester matrix (fraction
    Gaussian elimination), independent of the PRS code path."""
    m, n = p.degree, q.degree
    if m < 0 or n < 0:
        raise ValueError("zero polynomial")
    size = m + n
    if size == 0:
        return Fraction(1)
    rows = []
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    for i in range(n):
        rows.append([Fraction(0)] * i + pc + [Fraction(0)] * (size - i - m - 1))
    for i in range(m):
        rows.append([Fraction(0)] * i + qc + [Fraction(0)] * (size - i - n - 1))
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col]:
                f = rows[r][col] * inv
                for c in range(col, size):
                    rows[r][c] -= f * rows[col][c]
    return det


def naive_gcd(p, q):
    """Monic Euclid over Q, no performance tricks."""
    a, b = p, q
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def rand_poly(rng, deg, var="u"):
    return UniPoly([rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)], var)


# -- UniPoly basics ----------------------------------------------------------


def test_canonical_form():
    p = P(1, 0, 2, 0)
    assert p.coeffs == (Fraction(1), Fraction(0), Fraction(2))
    assert p.degree == 2
    assert UniPoly([0, 0]).is_zero
    assert UniPoly([]).degree == -1
    assert P(Fraction(2, 4))[0] == Fraction(1, 2)


def test_arithmetic():
    u = UniPoly.gen("u")
    p = u ** 2 - 2 * u + 2
    assert p == P(2, -2, 1)
    assert p * 0 == UniPoly.zero("u")
    assert (p - p).is_zero
    assert (u - 1) * (u + 1) == u ** 2 - 1
    assert divmod(u ** 3 - 1, u - 1) == (u ** 2 + u + 1, UniPoly.zero("u"))
    q, r = divmod(u ** 2 + 1, u - 3)
    assert q == u + 3 and r == P(10)
    with pytest.raises(ExactArithError):
        (u ** 2 + 1).exact_div(u - 3)


def test_var_mismatch_raises():
    with pytest.raises(ExactArithError):
        UniPoly.gen("u") + UniPoly.gen("t")


def test_equal_constants_hash_equal():
    # == ignores the variable of a constant, so a set must keep one of them
    a, b = UniPoly.const(3, "u"), UniPoly.const(3, "x")
    assert a == b and hash(a) == hash(b)
    assert len({a, b, UniPoly.zero("u"), UniPoly.zero("x")}) == 2
    assert UniPoly.gen("u") != UniPoly.gen("x")


# -- storage oracle: integer numerators over one denominator vs sympy QQ --------


def _rand_frac_poly(rng):
    """Mixed denominators, sometimes integral, sometimes zero or with trailing zeros."""
    dens = (1, 1, 2, 3, 4, 6, 8, 9, 12) if rng.random() < 0.7 else (1,)
    cs = [Fraction(rng.randint(-20, 20), rng.choice(dens)) for _ in range(rng.randint(0, 7))]
    return UniPoly(cs + [0] * rng.randint(0, 2), "x")


def _check_storage(p):
    assert all(type(c) is int for c in p.num) and type(p.den) is int
    assert p.den > 0
    assert _math_gcd(p.den, *p.num) == 1
    assert not p.num or p.num[-1] != 0


def test_storage_matches_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20161)
    x = sympy.Symbol("x")

    def qq(p):
        """sympy Poly over QQ read straight off the stored numerators and denominator."""
        return sympy.Poly(list(reversed(p.num)) or [0], x, domain="QQ") * sympy.Rational(1, p.den)

    for _ in range(150):
        p, q = _rand_frac_poly(rng), _rand_frac_poly(rng)
        P_, Q_ = (sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                              for c in reversed(poly.coeffs)] or [0], x, domain="QQ")
                  for poly in (p, q))
        results = [
            (p + q, P_ + Q_),
            (p - q, P_ - Q_),
            (p * q, P_ * Q_),
            (p ** 3, P_ ** 3),
            (p.derivative(), P_.diff(x)),
            (p.inflate(3), P_.compose(sympy.Poly(x ** 3, x, domain="QQ"))),
        ]
        if not q.is_zero:
            quo, rem = sympy.div(P_, Q_)
            results += [(divmod(p, q)[0], quo), (divmod(p, q)[1], rem)]
        if not p.is_zero:
            prim = P_.clear_denoms(convert=True)[1].primitive()[1]
            if prim.LC() < 0:
                prim = -prim
            results += [(p.monic(), P_.monic()), (p.primitive(), prim.set_domain("QQ"))]
        for got, want in results:
            _check_storage(got)
            assert qq(got) == want
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        assert p(t) == P_.eval(sympy.Rational(t.numerator, t.denominator))
        _check_storage(p)
        # one polynomial built two ways is one value with one hash
        if not q.is_zero:
            again = (p * q).exact_div(q)
            assert again == p and hash(again) == hash(p)
        for again in (p + q - q, UniPoly(p.coeffs, "x"), p.with_var("y").with_var("x")):
            assert again == p and hash(again) == hash(p)


def test_eval_at_fraction_matches_fraction_horner():
    """The int Horner sum at a Fraction against Horner run Fraction by
    Fraction, on random polynomials (with denominators) and values, an
    integer-valued Fraction among them."""
    rng = random.Random(44)
    for _ in range(200):
        p = UniPoly([Fraction(rng.randint(-99, 99), rng.randint(1, 12))
                     for _ in range(rng.randint(0, 12))])
        t = Fraction(rng.randint(-40, 40), rng.choice((1, 1, 2, 7, 10**12 + 39)))
        want = Fraction(0)
        for c in reversed(p.coeffs):
            want = want * t + c
        got = p(t)
        assert type(got) is Fraction and got == want


def test_eval_and_derivative():
    p = P(45, 0, -24, 0, 4, var="x")  # 4x^4 - 24x^2 + 45
    assert p(Fraction(1, 2)) == Fraction(45) - 6 + Fraction(1, 4)
    assert p.derivative() == P(0, -48, 0, 16, var="x")
    # Horner works on ring elements too: evaluate u^2+1 at a BiPoly
    t = BiPoly.gen("r", ("r", "x")) + BiPoly.gen("x", ("r", "x"))
    q = UniPoly.gen("u") ** 2 + 1
    assert q(t) == t * t + 1


def test_primitive_and_content():
    p = P(Fraction(3, 4), 0, Fraction(-3, 2))
    assert p.primitive() == P(-1, 0, 2)
    assert p.primitive().lc > 0
    assert Fraction(-3, 4) * p.primitive() == p


def test_inflate():
    p = P(Fraction(45, 4), 0, -6, 0, 1)
    assert p.inflate(2) == P(Fraction(45, 4), 0, 0, 0, -6, 0, 0, 0, 1)


def test_json_round_trip():
    p = P(Fraction(45, 4), 0, -6, 0, 1)
    obj = p.to_json()
    assert obj == {"var": "u", "coeffs": ["45/4", "0", "-6", "0", "1"]}
    assert UniPoly.from_json(obj) == p
    assert frac_str(Fraction(-7)) == "-7"


def test_str():
    assert str(P(1, -3, 0, 1)) == "u^3 - 3*u + 1"
    assert str(UniPoly.zero()) == "0"
    assert str(P(Fraction(45, 4), 0, -6, 0, 4, var="x")) == "4*x^4 - 6*x^2 + 45/4"


# -- gcd ----------------------------------------------------------------------


def test_gcd_examples():
    u = UniPoly.gen("u")
    # f6 = u^5 - 4u^3 + 3u is squarefree
    f6 = u ** 5 - 4 * u ** 3 + 3 * u
    assert poly_gcd(f6, f6.derivative()) == P(1)
    assert poly_gcd(u ** 2 - 1, u ** 2 - 2 * u + 1) == u - 1
    assert poly_gcd(UniPoly.zero(), 3 * u + 3) == u + 1
    assert poly_gcd(UniPoly.zero(), UniPoly.zero()).is_zero


def test_gcd_matches_naive_euclid():
    rng = random.Random(41)
    for _ in range(60):
        a = rand_poly(rng, rng.randint(0, 6))
        b = rand_poly(rng, rng.randint(0, 6))
        c = rand_poly(rng, rng.randint(0, 3))
        assert poly_gcd(a * c, b * c) == naive_gcd(a * c, b * c)


def test_gcd_divides_both():
    rng = random.Random(42)
    for _ in range(40):
        a = rand_poly(rng, rng.randint(1, 7))
        b = rand_poly(rng, rng.randint(1, 7))
        g = poly_gcd(a, b)
        assert (a % g).is_zero and (b % g).is_zero
        assert g.lc == 1


def test_gcd_matches_sympy_oracle(monkeypatch):
    """poly_gcd against sympy's gcd over QQ: random pairs with and without a
    common factor, and a coprime pair whose images modulo the first
    certification prime share the factor u - 1, so the modular test cannot
    certify it and the primitive PRS runs."""
    sympy = pytest.importorskip("sympy")
    from cvtk import ratpoly

    u = sympy.Symbol("u")

    def to_sympy(p):
        return sympy.Poly(list(reversed(p.num)) or [0], u, domain="QQ") * sympy.Rational(1, p.den)

    def check(a, b):
        want = sympy.gcd(to_sympy(a), to_sympy(b))
        want = want.monic() if not want.is_zero else want
        assert to_sympy(poly_gcd(a, b)) == want

    rng = random.Random(43)
    for _ in range(40):
        a = rand_poly(rng, rng.randint(0, 6))
        b = rand_poly(rng, rng.randint(0, 6))
        check(a, b)
        c = rand_poly(rng, rng.randint(1, 3))
        check(a * c, b * c)

    good = ratpoly._pseudo_divmod
    prems = []
    monkeypatch.setattr(ratpoly, "_pseudo_divmod", lambda a, b: prems.append(1) or good(a, b))
    # x - 1 and x - 1 - M share a root modulo every prime that divides M, so
    # each certificate prime tried sees a common factor and the PRS decides
    M = 1
    for pr in ratpoly._GFB_PRIMES:
        M *= pr
    x = UniPoly.gen("u")
    a, b = (x - 1) * (x + 2), (x - 1 - M) * (x + 3)
    check(a, b)
    assert poly_gcd(a, b) == P(1) and prems
    prems.clear()
    check(a, (x - 2) * (x + 3))  # certified coprime modulo the first prime
    assert not prems
    top = ratpoly._GFB_PRIMES[-1]
    check(a, (x - 1 - top) * (x + 3))  # unlucky at the first prime, certified at the second
    assert not prems


# -- int-list kernels: products and GF(p) division -----------------------------


def _kernel_operand(rng, length, bits, zeros):
    """A random signed int list whose entries are 0 with probability zeros."""
    top = 1 << bits
    return [0 if rng.random() < zeros else rng.randint(-top, top) for _ in range(length)]


def _takes_kronecker(a, b):
    """The gate _conv documents, restated: both operands with at least
    _KRONECKER_MIN_TERMS nonzero entries and coefficient bit lengths within
    four times (+64 bits) of each other."""
    k = ratpoly._KRONECKER_MIN_TERMS
    if sum(1 for x in a if x) < k or sum(1 for x in b if x) < k:
        return False
    ba = max(abs(x) for x in a).bit_length()
    bb = max(abs(x) for x in b).bit_length()
    return ba <= 4 * bb + 64 and bb <= 4 * ba + 64


def test_conv_matches_row_loop_and_sympy():
    """_conv against the schoolbook row loop and sympy's dense product on
    random signed operands: zero-heavy, unbalanced in bit length or length,
    lengths 1-200, tuples as in UniPoly.num, coefficients over 1,000 bits,
    and pairs on both sides of the Kronecker gate."""
    pytest.importorskip("sympy")
    from sympy.polys.densearith import dup_mul
    from sympy.polys.domains import ZZ

    rng = random.Random(71)
    sides = {True: 0, False: 0}
    for trial in range(300):
        a = _kernel_operand(rng, rng.randint(1, 200), rng.choice((1, 3, 30, 64, 300, 1100)),
                            rng.choice((0.0, 0.3, 0.9)))
        b = _kernel_operand(rng, rng.choice((1, 2, 9, rng.randint(1, 200))),
                            rng.choice((1, 30, 200, 1024)), rng.choice((0.0, 0.5)))
        if trial % 2:
            a, b = tuple(a), tuple(b)
        got = ratpoly._conv(a, b)
        assert got == ratpoly._conv_rows(a, b)
        want = dup_mul([ZZ(c) for c in reversed(a)], [ZZ(c) for c in reversed(b)], ZZ)
        assert _trim(list(got)) == [int(c) for c in reversed(want)]
        if any(a) and any(b):
            sides[_takes_kronecker(a, b)] += 1
    assert min(sides.values()) >= 40
    assert ratpoly._conv((), (1, 2)) == [] and ratpoly._conv([3], []) == []


def test_conv_kronecker_slots_hold_extreme_coefficients():
    """The slot width covers the largest product coefficient: all entries at
    +-(2**bits - 1) with equal and with alternating signs, so every
    coefficient of the product reaches its bound or cancels."""
    for bits in (1, 7, 8, 63, 64, 1000):
        m = (1 << bits) - 1
        for n in (8, 9, 64):
            for a, b in (([m] * n, [m] * n), ([-m] * n, [m] * (n + 3)),
                         ([(-1) ** i * m for i in range(n)], [-m] * n)):
                assert _takes_kronecker(a, b)
                assert ratpoly._conv(a, b) == ratpoly._conv_rows(a, b)


def test_kronecker_pack_is_the_value_at_a_power_of_two():
    """_kronecker_pack(a, wb) = sum(a[i] * 2**(8 * wb * i)) on random signed
    lists, zeros, single entries, all-negative lists and entries at the slot
    bound +-(2**(8 * wb - 1) - 1)."""
    rng = random.Random(72)

    def value(a, wb):
        return sum(x << 8 * wb * i for i, x in enumerate(a))

    for wb in (1, 2, 3, 8, 17, 40):
        top = (1 << 8 * wb - 1) - 1
        cases = [[], [0], [0] * 9, [top], [-top], [-1], [-top] * 12, [top, -top] * 5,
                 [-rng.randint(1, top) for _ in range(20)]]
        for _ in range(20):
            bits = rng.randint(0, 8 * wb - 1)
            cases.append(_kernel_operand(rng, rng.randint(1, 60), bits, rng.choice((0.0, 0.5))))
        for a in cases:
            a = [max(-top, min(top, x)) for x in a]
            assert ratpoly._kronecker_pack(a, wb) == value(a, wb), (wb, a)
            assert ratpoly._kronecker_pack(tuple(a), wb) == value(a, wb)


def test_conv_kronecker_matches_the_row_loop():
    """The Kronecker product against the schoolbook loop on seeded random
    pairs, lengths 1-80 and coefficients of 1-400 bits, ungated."""
    rng = random.Random(73)
    for _ in range(300):
        ba, bb = rng.randint(1, 400), rng.randint(1, 400)
        a = _kernel_operand(rng, rng.randint(1, 80), ba, rng.choice((0.0, 0.3)))
        b = _kernel_operand(rng, rng.randint(1, 80), bb, rng.choice((0.0, 0.3)))
        bits = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
        assert ratpoly._conv_kronecker(a, b, bits) == ratpoly._conv_rows(a, b)


# 7 is last so that the random draws for the other primes stay as they were.
GF_PRIMES = (2, 3, 37, 83, 7)


def _gf_poly(rng, length, p, monic=False):
    a = [rng.randrange(p) for _ in range(length)]
    if length:
        a[-1] = 1 if monic else rng.randrange(1, p)
    return a


def test_gf_divmod_and_gcd_match_galoistools():
    """The byte kernel's _gfb_divmod and _gfb_gcd against
    sympy.polys.galoistools gf_div and gf_gcd at p = 2, 3, 7, 37 and 83 (7
    is a prime of Musser's certificate for G_n at n = 8, 12 and 19), on
    inputs built with galoistools' gf_mul and gf_add: quotients of one, two
    and more terms, pairs with a planted common factor, remainder sequences
    whose degree drops by more than one, and dense operands at residue
    p - 1.  In the last family a = (p-1, ..., p-1, 2, 1) over b = (1, ...,
    1) makes both quotient terms of each step 1, so the dividend and two
    copies of b put 3 (p - 1) in one byte, the most the kernel allows."""
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    def down(a):
        return [ZZ(c) for c in reversed(a)]

    def up(a):
        return [int(c) for c in reversed(a)]

    def mul(a, b, p):
        return up(gt.gf_mul(down(a), down(b), p, ZZ))

    def add(a, b, p):
        return up(gt.gf_add(down(a), down(b), p, ZZ))

    def check(a, b, p):
        q, r = map(up, gt.gf_div(down(a), down(b), p, ZZ))
        if len(b) > 1:
            assert ratpoly._gfb_divmod(bytes(a), bytes(b), p) == (bytes(q), bytes(r))
        g = up(gt.gf_gcd(down(a), down(b), p, ZZ))
        assert ratpoly._gfb_gcd(bytes(a), bytes(b), p) == bytes(g)
        return g

    rng = random.Random(72)
    for p in GF_PRIMES:
        for _ in range(40):
            b = _gf_poly(rng, rng.randint(1, 40), p)
            a = _gf_poly(rng, len(b) - 1 + rng.choice((0, 1, 2, 3, 9)), p)
            check(a, b, p)
            # a planted common factor c, and a remainder that drops several degrees
            c = _gf_poly(rng, rng.randint(2, 12), p, monic=True)
            low = _gf_poly(rng, max(len(b) - rng.randint(2, 6), 0), p)
            a2 = add(mul(_gf_poly(rng, 3, p), b, p), low, p)
            check(a2, b, p)
            g = check(mul(a, c, p), mul(b, c, p), p)
            assert len(g) >= len(c)
        top = p - 1
        for lb in (1, 2, 3, 17, 40):
            for la in (lb - 1, lb, lb + 1, lb + 2, lb + 9, 2 * lb + 30):
                check([top] * la, [top] * lb, p)
                check([top] * la, [1] * lb, p)
            check([top] * (lb + 7) + [2 % p, 1], [1] * lb, p)
        for _ in range(20):
            f = [rng.choice((top, top, rng.randrange(p))) for _ in range(rng.randint(2, 60))]
            g = [rng.choice((top, top, rng.randrange(p))) for _ in range(rng.randint(2, 60))]
            f[-1] = g[-1] = top
            check(f, g, p)


def test_gfb_kernel_edges():
    """Byte-kernel conversions and edge cases: zero and constant operands,
    translate rows and cached inverses, monic, derivative, and the prime
    list the byte-slot bound gives (every prime p with 3 (p - 1) <= 255)."""
    assert ratpoly._GFB_PRIMES == tuple(
        p for p in range(2, 100) if all(p % d for d in range(2, p)) and 3 * (p - 1) <= 255)
    assert ratpoly._GFB_PRIMES[-1] == 83
    for p in ratpoly._GFB_PRIMES:
        rows, inv = ratpoly._gfb_tables(p)
        assert [list(r) for r in rows] == [[c * v % p for v in range(256)] for c in range(p)]
        assert len(inv) == p and all(c * inv[c] % p == 1 for c in range(1, p))
    p = 83
    assert ratpoly._gfb([83, -1, 166, 0, 2 * 83], p) == bytes([0, 82])
    assert ratpoly._gfb([83, 166], p) == b""
    assert ratpoly._gfb_gcd(b"", b"", p) == b""
    assert ratpoly._gfb_gcd(b"", bytes([3, 5]), p) == ratpoly._gfb_monic(bytes([3, 5]), p)
    assert ratpoly._gfb_gcd(bytes([3, 5]), bytes([7]), p) == b"\1"
    assert ratpoly._gfb_divmod(bytes([3]), bytes([1, 1]), p) == (b"", bytes([3]))
    m = ratpoly._gfb_monic(bytes([4, 0, 9]), p)
    assert m[-1] == 1 and m == bytes(c * pow(9, -1, p) % p for c in (4, 0, 9))
    assert ratpoly._gfb_deriv(bytes([5, 7, 0, 28]), p) == bytes([7, 0, 84 % p])
    assert ratpoly._gfb_deriv(bytes([5, 0, 1]), 2) == b""


def test_conv_path_selection_is_pinned(monkeypatch):
    """Which products take the Kronecker path, counted rather than timed: the
    index-60 Chebyshev products, the dense products of the n = 8 X model (its
    row-loop products all have fewer than eight nonzero entries), and at
    n = 10 the first dense products whose bit lengths are too far apart."""
    from cvtk.cheb import f_poly
    from cvtk.variety import x_variety_poly

    fj, fjm = f_poly(60), f_poly(59)
    calls = []
    kron, rows = ratpoly._conv_kronecker, ratpoly._conv_rows
    monkeypatch.setattr(ratpoly, "_conv_kronecker",
                        lambda a, b, bits: calls.append(("kronecker", a, b)) or kron(a, b, bits))
    monkeypatch.setattr(ratpoly, "_conv_rows",
                        lambda a, b: calls.append(("rows", a, b)) or rows(a, b))

    def census():
        out = {"kronecker": 0, "rows": 0, "rows, dense": 0}
        for path, a, b in calls:
            assert (path == "kronecker") == _takes_kronecker(a, b)
            dense = min(len(a) - a.count(0), len(b) - b.count(0)) >= 8
            out[path + (", dense" if path == "rows" and dense else "")] += 1
        calls.clear()
        return out

    _ = fj * fj, fj * fjm, fj.derivative() * fj
    assert census() == {"kronecker": 3, "rows": 0, "rows, dense": 0}
    x_variety_poly(8)
    assert census() == {"kronecker": 70, "rows": 26, "rows, dense": 0}
    x_variety_poly(10)
    assert census() == {"kronecker": 84, "rows": 30, "rows, dense": 24}


# -- resultants ---------------------------------------------------------------


def resultant(p, q):
    """res(p, q) over Q through resultant_in, on polynomials free of r."""
    vs = ("r", "x")
    res = resultant_in(BiPoly.from_uni(p.with_var("x"), vs),
                       BiPoly.from_uni(q.with_var("x"), vs), "x")
    assert res.degree <= 0
    return res[0]


def test_resultant_examples():
    u = UniPoly.gen("u")
    assert resultant(u ** 2 + 1, u - 3) == 10
    c = Fraction(5, 7)
    assert resultant(u - c, u - c) == 0
    # res(p, q) = lc(p)^deg q * prod q(root_i(p)); here the only root is u=1
    assert resultant(2 * u - 2, u ** 2 + 1) == 2 ** 2 * (1 + 1)


def test_resultant_matches_sylvester():
    rng = random.Random(43)
    for _ in range(80):
        a = rand_poly(rng, rng.randint(1, 6))
        b = rand_poly(rng, rng.randint(1, 6))
        assert resultant(a, b) == sylvester_resultant(a, b)


def test_resultant_multiplicative():
    rng = random.Random(44)
    for _ in range(30):
        a = rand_poly(rng, rng.randint(1, 4))
        b = rand_poly(rng, rng.randint(1, 4))
        c = rand_poly(rng, rng.randint(1, 4))
        assert resultant(a * b, c) == resultant(a, c) * resultant(b, c)


def test_resultant_common_root_is_zero():
    u = UniPoly.gen("u")
    assert resultant((u - 2) * (u + 5), (u - 2) * (u ** 2 + 1)) == 0


def test_resultant_in_eliminates():
    # eliminating u from (u^2 - 2u + 2, x^2*u^2 - (2+u)*u^2 + 1) gives a
    # quartic in x with the same roots as 4x^4 - 24x^2 + 45
    vs = ("u", "x")
    up = BiPoly.gen("u", vs)
    xp = BiPoly.gen("x", vs)
    m = up * up - 2 * up + 2
    f = xp * xp * up * up - (2 + up) * up * up + 1
    res = resultant_in(m, f, "u")
    assert res.var == "x"
    assert res.primitive() == UniPoly([45, 0, -24, 0, 4], "x")


def test_resultant_in_matches_evaluation():
    # spot check: res_x(p, q) evaluated at r=c equals res(p(c), q(c)) whenever
    # no leading-coefficient degeneration happens at c
    rng = random.Random(45)
    vs = ("r", "x")
    for _ in range(20):
        p = BiPoly(
            {(rng.randint(0, 2), j): rng.randint(-4, 4) for j in range(3)}, vs
        ) + BiPoly({(0, 3): 1}, vs)
        q = BiPoly(
            {(rng.randint(0, 2), j): rng.randint(-4, 4) for j in range(2)}, vs
        ) + BiPoly({(0, 2): 1}, vs)
        res = resultant_in(p, q, "x")
        for c in (0, 1, -2):
            pc = UniPoly([row(c) for row in p.rows], "x")
            qc = UniPoly([row(c) for row in q.rows], "x")
            assert res(Fraction(c)) == sylvester_resultant(pc, qc)


# -- BiPoly -------------------------------------------------------------------


def test_bipoly_basics():
    vs = ("r", "x")
    r = BiPoly.gen("r", vs)
    x = BiPoly.gen("x", vs)
    p = (2 - r) * (x ** 2 - 2 - r) + 2
    assert p.degree_in("x") == 2 and p.degree_in("r") == 2
    assert p.total_degree() == 3
    assert UniPoly([row(2) for row in p.rows], "x") == UniPoly.const(2, "x")
    assert p.eval(Fraction(0), Fraction(1)) == 2 * (1 - 2) + 2
    assert not any(p.rows[1::2]) and any(row.num[1::2] for row in p.rows)


def test_bipoly_exchange_vars():
    vs = ("r", "x")
    r = BiPoly.gen("r", vs)
    x = BiPoly.gen("x", vs)
    d = r - x
    assert d.exchange_vars() == -d
    assert (r ** 2 * x).exchange_vars() == x ** 2 * r


def test_bipoly_coeff_list_round_trip():
    vs = ("r", "t")
    r = BiPoly.gen("r", vs)
    t = BiPoly.gen("t", vs)
    p = r ** 2 * t - 3 * t ** 2 + r - 5
    cl = p.coeff_list_in("t")
    assert [c.var for c in cl] == ["r", "r", "r"]
    assert BiPoly.from_coeff_list(cl, "t", vs) == p


def test_bipoly_divmod():
    vs = ("r", "t")
    r = BiPoly.gen("r", vs)
    t = BiPoly.gen("t", vs)
    num = r ** 3 * t - r * t ** 3 + r - t
    q, rem = num.divmod_in(r - t, "r")
    assert rem.is_zero
    assert q * (r - t) == num


def test_pseudo_divmod_matches_sympy_pdiv():
    """The kernel on int lists and on lists of UniPolys in t, against
    sympy.pdiv over ZZ and over ZZ[t]; c**e * a = q * b + r with e fixed by
    the degrees, so the quotient and remainder are unique."""
    sympy = pytest.importorskip("sympy")
    x, t = sympy.symbols("x t")
    rng = random.Random(61)

    def from_ints(cs):
        return sympy.Poly(sum(c * x ** i for i, c in enumerate(cs)), x, domain="ZZ")

    def from_unis(ps):
        terms = (sum(c * t ** j for j, c in enumerate(p.num)) * x ** i for i, p in enumerate(ps))
        return sympy.Poly(sum(terms), x, domain="ZZ[t]")

    for _ in range(60):
        b = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
        b[-1] = rng.choice([1, -1, 2, -3, 6, 35])
        # e counts from len(a), sympy from deg a: no trailing zero; deg a < deg b too
        a = ratpoly._trim([rng.randint(-9, 9) for _ in range(rng.randint(0, 8))])
        q, r = ratpoly._pseudo_divmod(a, b)
        assert len(r) == (len(b) - 1 if len(a) >= len(b) else len(a))
        Qw, Rw = sympy.pdiv(from_ints(a), from_ints(b))
        assert (from_ints(q), from_ints(r)) == (Qw, Rw)

    def rand_uni():
        return UniPoly.from_ints([rng.randint(-5, 5) for _ in range(rng.randint(0, 3))], 1, "t")

    for _ in range(25):
        b = [rand_uni() for _ in range(rng.randint(1, 4))]
        b[-1] = rng.choice([UniPoly.const(1, "t"), UniPoly.from_ints([1, 2], 1, "t"),
                            UniPoly.from_ints([-3, 0, 2], 1, "t")])
        a = ratpoly._trim([rand_uni() for _ in range(rng.randint(0, 6))])
        q, r = ratpoly._pseudo_divmod(a, b)
        Qw, Rw = sympy.pdiv(from_unis(a), from_unis(b))
        assert (from_unis(q), from_unis(r)) == (Qw, Rw)


def test_bipoly_divmod_needs_a_monic_divisor():
    vs = ("r", "t")
    r = BiPoly.gen("r", vs)
    t = BiPoly.gen("t", vs)
    num = r ** 3 * t - r * t ** 3 + r - t
    for d in (2 * r - t, t * r + 1, BiPoly.const(0, vs)):
        with pytest.raises(ExactArithError, match="not monic in r"):
            num.divmod_in(d, "r")


def test_bipoly_primitive_sign():
    vs = ("r", "x")
    r = BiPoly.gen("r", vs)
    x = BiPoly.gen("x", vs)
    p = -2 * r ** 2 * x + 4 * r - 6
    pr = p.primitive()
    assert pr == r ** 2 * x - 2 * r + 3
    assert p.content() == -2


# -- storage oracle: rows of UniPolys vs sympy QQ[r, x] -------------------------


def _rand_bipoly(rng, vs=("r", "x")):
    """Mixed denominators; sometimes zero, sometimes free of one variable."""
    dens = (1, 1, 2, 3, 4, 6, 9) if rng.random() < 0.7 else (1,)
    di, dj = rng.randint(0, 3), rng.randint(0, 3)
    terms = {(rng.randint(0, di), rng.randint(0, dj)): Fraction(rng.randint(-9, 9), rng.choice(dens))
             for _ in range(rng.randint(0, 7))}
    return BiPoly(terms, vs)


def _check_rows(p):
    assert all(isinstance(row, UniPoly) and row.var == p.vars[0] for row in p.rows)
    assert not p.rows or not p.rows[-1].is_zero


def test_bipoly_matches_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.subresultants_qq_zz import sylvester

    rng = random.Random(20162)
    vs = ("r", "x")
    r, x = sympy.symbols("r x")

    def qq(p):
        """sympy Poly over QQ read straight off the stored rows."""
        d = {(i, j): sympy.Rational(c, row.den)
             for j, row in enumerate(p.rows) for i, c in enumerate(row.num) if c}
        return sympy.Poly.from_dict(d or {(0, 0): 0}, r, x, domain="QQ")

    def uq(u, gen):
        return sympy.Poly(list(reversed(u.coeffs)) or [0], gen, domain="QQ")

    def rat(c):
        return sympy.Rational(c.numerator, c.denominator)

    for _ in range(60):
        p, q = _rand_bipoly(rng), _rand_bipoly(rng)
        P_, Q_ = qq(p), qq(q)
        assert P_ == sympy.Poly.from_dict(
            {e: rat(c) for e, c in p._terms()} or {(0, 0): 0}, r, x, domain="QQ")
        results = [
            (p + q, P_ + Q_),
            (p - q, P_ - Q_),
            (p * q, P_ * Q_),
            (p ** 3, P_ ** 3),
            (p.exchange_vars(),
             sympy.Poly(P_.as_expr().subs({r: x, x: r}, simultaneous=True), r, x, domain="QQ")),
        ]
        if not p.is_zero:
            prim = P_.clear_denoms(convert=True)[1].primitive()[1]
            if prim.LC(order="lex") < 0:
                prim = -prim
            results.append((p.primitive(), prim.set_domain("QQ")))
            assert p.content() == P_.LC(order="lex") / prim.LC(order="lex")
        for got, want in results:
            _check_rows(got)
            assert qq(got) == want
        _check_rows(p)
        a, b = (Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(2))
        assert p.eval(a, b) == P_(rat(a), rat(b))
        for var, other in ((r, x), (x, r)):
            want = sympy.Poly(P_.as_expr(), var).all_coeffs()[::-1] if not p.is_zero else []
            got = p.coeff_list_in(str(var))
            assert [uq(c, other) for c in got] == [sympy.Poly(w, other, domain="QQ") for w in want]
            assert BiPoly.from_coeff_list(got, str(var), vs) == p
        # one polynomial built five ways is one value with one hash
        for again in (p + q - q, BiPoly(dict(p._terms()), vs), BiPoly.from_json(p.to_json()),
                      p.exchange_vars().exchange_vars(), q * p - p * q + p):
            _check_rows(again)
            assert again == p and hash(again) == hash(p)
        # division by a divisor monic in the variable, and resultants
        for var, other in ((r, x), (x, r)):
            k = rng.randint(1, 3)
            lower = _rand_bipoly(rng)
            lower = BiPoly.from_coeff_list(lower.coeff_list_in(str(var))[:k], str(var), vs)
            d = lower + BiPoly.gen(str(var), vs) ** k
            quo, rem = p.divmod_in(d, str(var))
            Qw, Rw = sympy.div(sympy.Poly(P_.as_expr(), var, domain=f"QQ[{other}]"),
                               sympy.Poly(qq(d).as_expr(), var, domain=f"QQ[{other}]"))
            assert qq(quo) == sympy.Poly(Qw.as_expr(), r, x, domain="QQ")
            assert qq(rem) == sympy.Poly(Rw.as_expr(), r, x, domain="QQ")
            if p.degree_in(str(var)) > 0:
                # sympy.resultant flips the sign when the first argument has the
                # lower degree and both degrees are odd; its Sylvester matrix does not
                res = resultant_in(p, d, str(var))
                S = DomainMatrix.from_Matrix(sylvester(P_.as_expr(), qq(d).as_expr(), var))
                want = S.domain.to_sympy(S.det())
                assert uq(res, other) == sympy.Poly(want, other, domain="QQ")


def test_bipoly_json_round_trip():
    vs = ("r", "x")
    p = BiPoly({(0, 0): 1, (2, 1): Fraction(-3, 2)}, vs)
    obj = p.to_json()
    assert obj["vars"] == ["r", "x"]
    assert BiPoly.from_json(obj) == p
