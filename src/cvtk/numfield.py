"""Arithmetic in Q[r]/(m) for a monic irreducible modulus m in Z[r].

An element's coordinates in the power basis 1, r, ..., r^(k-1) are k int
numerators over one positive denominator D, in lowest terms, so field
arithmetic runs in Python ints; products reduce by the monic modulus with
ratpoly's pseudo-division kernel.  This module alone turns an element a into
a matrix: A = D*M as int rows, M the matrix of multiplication by a.  Minimal
polynomials come from the characteristic polynomial of M: the modulus is
irreducible, so it is a power of the minimal polynomial and the squarefree
part recovers it exactly.  The characteristic polynomial comes from power
sums (traces) in the field, not from a determinant (Cohen, GTM 138, ch. 4).
The power sums Tr(b^j), b = D*a, j <= k, are read off K = isqrt(2k) baby
steps b^i and about k/K giant steps in B = b^K (power projection), and the
check that the result vanishes at a evaluates it at b by Horner in B over the
same baby steps (Paterson-Stockmeyer): about 2 sqrt(2k) mat-vecs in all,
where the powers b^j one by one would take k.  A non-square witness (a prime l
and a simple root of m mod l at which a is a non-residue) proves that a is
not a square in the field.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt
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

    D is a's denominator.  Column i of A is D*a*r^i (see _columns).
    """
    return a.den, list(zip(*_columns(a.num, a.field.modulus.num)))


def _columns(first, m) -> list:
    """The columns b*r^i mod m, i < deg m, of the multiplication matrix of the
    element b with integer coordinates first: each is the previous one times
    r, less its top entry t times the monic modulus m."""
    cols = [list(first)]
    low = m[1:-1]
    for _ in low:
        col = cols[-1]
        t = col[-1]
        cols.append([-t * m[0], *(c - t * y for c, y in zip(col, low))])
    return cols


def _power_steps(a: NFElem):
    """(D, baby, giant) for b = D*a, A = D*M the rows of multiplication_matrix:
    baby holds v_i = A^i e_0, the coordinates of b^i, for i < K = isqrt(2k),
    and giant the columns of the multiplication matrix of B = b^K.  Every
    b^(qK + i) is B^q b^i, so K + 1 mat-vecs and the columns of B stand in for
    the k + 1 powers of b (Paterson and Stockmeyer, SIAM J. Comput. 2, 1973).
    """
    d, rows = multiplication_matrix(a)
    baby = [[1] + [0] * (len(rows) - 1)]
    for _ in range(isqrt(2 * len(rows))):
        baby.append([sum(map(mul, row, baby[-1])) for row in rows])
    return d, baby[:-1], _columns(baby[-1], a.field.modulus.num)


def char_poly(a: NFElem, var: str = "u", steps=None) -> UniPoly:
    """Monic characteristic polynomial of x -> a*x on the field.

    steps is _power_steps(a), given by a caller that reuses it.  The char
    poly of M is det(var*I - M) = D**-k det(D*var*I - A), read off the power
    sums s_j = Tr(b^j), b = D*a, j <= k.  Newton's identities on the integer
    modulus give tau_i = Tr(r^i), and Tr(x) = <x, tau> on coordinates, so
    s_(qK + i) = <tau, M_B^q v_i> = <u_q, v_i> with u_0 = tau and u_(q+1)
    = M_B^T u_q: entry i of u_(q+1) is <column i of M_B, u_q> (Shoup, ISSAC
    1999).  Newton's identities again turn s_1..s_k into the integer char
    poly of A, each step an exact division by j, and coefficient j of
    det(D*var*I - A) carries D**j over the one denominator D**k.
    """
    d, baby, giant = steps or _power_steps(a)
    k = len(giant)
    m = a.field.modulus.num
    tau = [k]
    for i in range(1, k):
        tau.append(-i * m[k - i] - sum(m[k - j] * tau[i - j] for j in range(1, i)))
    s, u = [], tau
    while True:
        s.extend(sum(map(mul, u, v)) for v in baby[:k + 1 - len(s)])
        if len(s) > k:
            break
        u = [sum(map(mul, col, u)) for col in giant]
    c = [1]  # descending coefficients of det(var*I - A)
    for j in range(1, k + 1):
        q, rem = divmod(-sum(c[j - i] * s[i] for i in range(1, j + 1)), j)
        if rem:
            raise ExactArithError("Newton's identities gave a non-integer coefficient")
        c.append(q)
    return UniPoly.from_ints([cj * d ** (k - j) for j, cj in enumerate(c)][::-1], d ** k, var)


def nf_minimal_polynomial(a: NFElem, var: str = "u") -> UniPoly:
    """Monic minimal polynomial of a over Q, checked to vanish at a.

    The char poly of an element of a field is a power of one irreducible, so
    its squarefree part mp is the minimal polynomial.  The check evaluates
    P(u) = mp.den * D**deg * mp(u / D), whose coefficients P_j = mp.num[j] *
    D**(deg - j) are integers, at b = D*a: P(b) = mp.den * D**deg * mp(a) is
    the sum over q of B^q (sum_i P_(qK + i) v_i), by Horner in B with the rows
    of M_B, from the same steps as the traces.
    """
    d, baby, giant = steps = _power_steps(a)
    mp = squarefree_part(char_poly(a, var, steps))
    deg = mp.degree
    p = [c * d ** (deg - j) for j, c in enumerate(mp.num)]
    rows = list(zip(*giant))
    acc = [0] * len(rows)
    for q in reversed(range(0, deg + 1, len(baby))):
        if any(acc):
            acc = [sum(map(mul, row, acc)) for row in rows]
        for c, v in zip(p[q:], baby):
            if c:
                acc = [x + c * y for x, y in zip(acc, v)]
    if any(acc):
        raise ExactArithError("minimal polynomial does not vanish; bad modulus?")
    if a.field.degree % deg != 0:
        raise ExactArithError("minimal polynomial degree must divide field degree")
    return mp


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
