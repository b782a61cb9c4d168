"""Arithmetic in Q[r]/(m) for a monic irreducible modulus m in Z[r].

An element's coordinates in the power basis 1, r, ..., r^(k-1) are k int
numerators over one positive denominator D, in lowest terms, so field
arithmetic runs in Python ints; products reduce by the monic modulus with
ratpoly's pseudo-division kernel.  This module alone turns an element a into
a matrix: A = D*M as int rows, M the matrix of multiplication by a.  Minimal
polynomials come from the characteristic polynomial of M: the modulus is
irreducible, so it is a power of the minimal polynomial and the squarefree
part recovers it exactly.  The characteristic polynomial comes from power
sums (traces) in the field, not from a determinant (Cohen, GTM 138, ch. 4);
the traces are read off the Krylov vectors A^j e_0, and the check that the
result vanishes at a sums the same vectors.  A non-square witness (a prime l
and a simple root of m mod l at which a is a non-residue) proves that a is
not a square in the field.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from operator import add, mul

from . import Record, _set
from .factor import squarefree_part
from .ratpoly import (_GFB_PRIMES, ExactArithError, UniPoly, _conv, _gf_eval, _gfb,
                      _pseudo_divmod, frac_str)

_TRIAL_BOUND = 10 ** 6


class NumberField:
    """Q[r]/(m) for m monic in Z[r]; the caller guarantees m irreducible over Q."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: UniPoly):
        if modulus.degree < 1 or modulus.lc != 1:
            raise ExactArithError("modulus must be monic of positive degree")
        if modulus.den != 1:
            raise ExactArithError("modulus must have integer coefficients")
        self.modulus = modulus

    @property
    def degree(self) -> int:
        return self.modulus.degree

    def __eq__(self, other) -> bool:
        return isinstance(other, NumberField) and self.modulus == other.modulus

    def __hash__(self):
        return hash(self.modulus)

    def __repr__(self) -> str:
        return f"NumberField({self.modulus})"

    def elem(self, coeffs) -> "NFElem":
        coeffs = list(coeffs)
        if len(coeffs) > self.degree:
            raise ExactArithError("coordinate vector too long")
        return self.from_poly(UniPoly(coeffs, self.modulus.var))

    def one(self) -> "NFElem":
        return self.elem((1,))

    def gen(self) -> "NFElem":
        if self.degree == 1:
            return self.elem((-self.modulus[0],))
        return self.elem((0, 1))

    def from_poly(self, p: UniPoly) -> "NFElem":
        """Image of a polynomial in the generator (reduced mod the modulus)."""
        p = p % self.modulus.with_var(p.var)
        return NFElem(self, p.num + (0,) * (self.degree - len(p.num)), p.den)


class NFElem(Record):
    """Element sum(num[i] * r**i) / den of a NumberField: num holds field.degree
    ints, zero-padded, and den > 0 with gcd(den, *num) == 1.  The form is
    canonical, so equal elements compare equal structurally."""

    field: NumberField
    num: tuple
    den: int

    def __init__(self, field: NumberField, num: tuple, den: int):
        # the arithmetic builds many elements: bind the fields directly
        _set(self, "field", field)
        _set(self, "num", num)
        _set(self, "den", den)

    @property
    def coeffs(self) -> tuple:
        """Power-basis coordinates as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def _coerce(self, other):
        if isinstance(other, NFElem):
            if other.field != self.field:
                raise ExactArithError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.elem((other,))
        return None

    def __add__(self, other):
        if isinstance(other, int):
            # c*den added to num[0] leaves gcd(den, *num) at 1
            num = list(self.num)
            num[0] += other * self.den
            return NFElem(self.field, tuple(num), self.den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return _reduced(self.field, list(map(add, self.num, o.num)), da)
        return _reduced(self.field, [a * db + b * da for a, b in zip(self.num, o.num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return NFElem(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, NFElem)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            num, den = other.numerator, other.denominator
            return _reduced(self.field, [a * num for a in self.num], self.den * den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # a product of 2k - 1 >= k entries leaves a remainder of exactly k
        out = _pseudo_divmod(_conv(self.num, o.num), self.field.modulus.num)[1]
        return _reduced(self.field, out, self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ExactArithError("field elements take non-negative powers only")
        out = self.field.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def to_json(self) -> dict:
        return {"basis": self.field.modulus.var, "coords": [frac_str(c) for c in self.coeffs]}

    def __repr__(self) -> str:
        var = self.field.modulus.var
        return f"NFElem({UniPoly.from_ints(self.num, self.den, var)})"


def _reduced(field: NumberField, num: list, den: int) -> NFElem:
    """The element num / den, for den > 0, in lowest terms."""
    g = gcd(den, *num)
    if g != 1:
        num, den = [c // g for c in num], den // g
    return NFElem(field, tuple(num), den)


def multiplication_matrix(a: NFElem):
    """(D, A): A = D*M as int rows, M the matrix of x -> a*x in the power basis.

    D is a's denominator.  Column i of A is D*a*r^i: each column is the
    previous one times r, reduced by the monic modulus with _pseudo_divmod.
    """
    m = a.field.modulus.num
    cols = [list(a.num)]
    for _ in range(1, a.field.degree):
        cols.append(_pseudo_divmod([0] + cols[-1], m)[1])
    return a.den, list(zip(*cols))


def char_poly(a: NFElem, var: str = "u") -> UniPoly:
    """Monic characteristic polynomial of x -> a*x on the field."""
    d, rows = multiplication_matrix(a)
    return _char_poly(a.field.modulus, d, _krylov(rows), var)


def _krylov(rows) -> list:
    """v_0, ..., v_k with v_j = A^j e_0 for A = rows: the coordinates of (D*a)^j."""
    v = [1] + [0] * (len(rows) - 1)
    out = [v]
    for _ in rows:
        v = [sum(map(mul, row, v)) for row in rows]
        out.append(v)
    return out


def _char_poly(modulus: UniPoly, d: int, krylov, var: str) -> UniPoly:
    """det(var*I - M) from the traces s_j = Tr(A^j), A = D*M.

    Newton's identities on the integer modulus give tau_i = Tr(r^i), so
    s_j = <v_j, tau> over the Krylov vectors v_j = A^j e_0 (the coordinates
    of (D*a)^j).  Newton's identities again turn s_1..s_k into the integer
    char poly of A, each step an exact division by j, and
    det(var*I - M) = D**-k * det(D*var*I - A) multiplies its coefficient j by
    D**j over the one denominator D**k.
    """
    k = len(krylov) - 1
    m = modulus.num
    tau = [k]
    for i in range(1, k):
        tau.append(-i * m[k - i] - sum(m[k - j] * tau[i - j] for j in range(1, i)))
    s = [sum(map(mul, v, tau)) for v in krylov]
    c = [1]  # descending coefficients of det(var*I - A)
    for j in range(1, k + 1):
        q, rem = divmod(-sum(c[j - i] * s[i] for i in range(1, j + 1)), j)
        if rem:
            raise ExactArithError("Newton's identities gave a non-integer coefficient")
        c.append(q)
    return UniPoly.from_ints([cj * d ** (k - j) for j, cj in enumerate(c)][::-1], d ** k, var)


def nf_minimal_polynomial(a: NFElem, var: str = "u") -> UniPoly:
    """Monic minimal polynomial of a over Q, checked to vanish at a."""
    d, rows = multiplication_matrix(a)
    krylov = _krylov(rows)
    mp = squarefree_part(_char_poly(a.field.modulus, d, krylov, var))
    # the char poly of an element of a field is a power of one irreducible
    if not _vanishes(mp, d, krylov):
        raise ExactArithError("minimal polynomial does not vanish; bad modulus?")
    if a.field.degree % mp.degree != 0:
        raise ExactArithError("minimal polynomial degree must divide field degree")
    return mp


def _vanishes(mp: UniPoly, d: int, krylov) -> bool:
    """Whether mp(a) = 0, for the Krylov vectors v_j = A^j e_0 of A = D*M.

    P(u) = mp.den * D**deg * mp(u / D) has the integer coefficients
    mp.num[j] * D**(deg - j) and P(D*a) = mp.den * D**deg * mp(a), whose
    coordinates are the sum of P's coefficient j times v_j.
    """
    deg = mp.degree
    acc = [0] * (len(krylov) - 1)
    for j, c in enumerate(mp.num):
        if c:
            c *= d ** (deg - j)
            acc = [s + c * x for s, x in zip(acc, krylov[j])]
    return not any(acc)


def non_square_witness(a: NFElem):
    """(l, r0) proving that a is not a square in its field, or None.

    l is an odd prime of _GFB_PRIMES (3..83) that does not divide a.den,
    and r0 a simple root of the modulus m mod l: m(r0) = 0 and m'(r0) != 0
    mod l.  By Hensel's lemma r0 lifts to a root of m in Z_l, so the field
    embeds in Q_l with r -> r0 as its residue map, and a goes to an l-adic
    integer with residue a(r0) = num(r0) / den mod l.  When that residue is a
    non-residue mod l (Euler's criterion), a is not a square in Q_l, nor in
    the field.  None means that no prime up to 83 gave a witness.

    A prime at which the modulus has simple roots gives a witness with
    probability about 1/2 for a non-square; for the x^2 of G_n, n = 2..128,
    one at most 61 does.  For a square none does, and the 22 primes end that
    search after a few thousand small-int operations.
    """
    modulus = a.field.modulus
    m, dm = modulus.num, modulus.derivative().num
    for ell in _GFB_PRIMES[1:]:
        if a.den % ell == 0:
            continue
        mq, dq, aq = (_gfb(cs, ell) for cs in (m, dm, a.num))
        inv = pow(a.den, -1, ell)
        for r0 in range(ell):
            if _gf_eval(mq, r0, ell) or not _gf_eval(dq, r0, ell):
                continue
            if pow(_gf_eval(aq, r0, ell) * inv, (ell - 1) // 2, ell) == ell - 1:
                return ell, r0
    return None


class IntegralityVerdict(Record):
    """2-adic (and general p-adic) integrality certificate for an algebraic
    number, read off the denominators of its monic minimal polynomial."""

    is_algebraic_integer: bool
    denominator_lcm: int
    bad_primes: tuple
    composite_cofactor: int | None = None

    @property
    def prime_set_complete(self) -> bool:
        return self.composite_cofactor is None

    def to_json(self) -> dict:
        return {
            "integral": self.is_algebraic_integer,
            "denominator_lcm": str(self.denominator_lcm),
            "bad_primes": list(self.bad_primes),
            "prime_set_complete": self.prime_set_complete,
        }


def integrality_verdict(min_poly: UniPoly) -> IntegralityVerdict:
    """Verdict for the algebraic numbers with the given monic minimal polynomial.

    An algebraic number is an algebraic integer iff its monic minimal
    polynomial has integer coefficients; the primes dividing the coefficient
    denominators are exactly the primes where it fails to be integral.  With
    lc = 1 in lowest terms, their lcm is the polynomial's one denominator den.
    """
    if min_poly.lc != 1:
        raise ExactArithError("minimal polynomial must be monic")
    denom = min_poly.den
    if denom == 1:
        return IntegralityVerdict(True, 1, ())
    primes = []
    rest = denom
    cofactor = None
    for p in chain((2,), range(3, _TRIAL_BOUND + 1, 2)):
        if p * p > rest:
            if rest > 1:
                primes.append(rest)  # no divisor below its square root: prime
            break
        while rest % p == 0:
            primes.append(p)
            rest //= p
    else:
        cofactor = rest  # reported verbatim, prime set incomplete
    bad = tuple(sorted(set(primes)))
    return IntegralityVerdict(False, denom, bad, cofactor)
