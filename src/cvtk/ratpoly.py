"""Exact polynomial arithmetic over the rationals.

A univariate polynomial is stored as integer numerators over one positive
denominator: a tuple of ascending ints without trailing zeros and an int den
coprime to them, a canonical form.  Integer polynomials (den = 1) therefore
add, multiply, differentiate and evaluate in Python ints, and division is
integer pseudo-division over one final denominator; `coeffs` gives the same
values as Fractions.  A bivariate polynomial is dense in its second
variable: a tuple of UniPolys in the first, one per power of the second
(von zur Gathen and Gerhard, Modern Computer Algebra, 8.4), so it computes
with UniPoly's integer arithmetic.  Everything here is deterministic and
exact; no floating point.

Every product of two int coefficient lists runs _conv: UniPoly and BiPoly
row products and cvtk.numfield's field products.  It has two paths, chosen
from operand lengths, nonzero counts and bit lengths only: long dense
operands of comparable coefficient size take one bignum product by
Kronecker substitution, and the rest a row loop that skips zero entries.
cvtk.cheb's identity checks use the packing step alone, _kronecker_pack,
to evaluate integer polynomials at one power of two.

Every reduction of one polynomial by another over Z or Z[t] runs the one
pseudo-division kernel _pseudo_divmod: UniPoly division, the subresultant
PRS of resultant_in (over Z[t], a BiPoly's rows as coefficients), the
remainder sequence of poly_gcd, and cvtk.numfield's field products and
multiplication matrices.  No BiPoly is divided by another: cvtk.variety
splits r - t off D by synthetic division on its integer rows.

Over GF(p) for the primes p <= 83 (_GFB_PRIMES) a polynomial is `bytes`,
one residue per byte, and the _gfb_* kernel computes with bytes.translate
and bignum adds: a remainder step of two quotient terms is a fixed number
of C-level operations on whole polynomials, whatever the degree.  It serves
poly_gcd's coprimality certificate (at 83 and 79, or the next usable
primes), and the distinct-degree split and squarefree tests of
cvtk.factor's irreducibility certificate.  The non-square witness, at
primes below 100, reduces with _gfb (valid for any p < 256) and evaluates
the bytes with _gf_eval.
This module builds no matrices: cvtk.numfield builds the integer
multiplication matrices of field elements, and cvtk.factor the Frobenius
columns of its distinct-degree split.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat, zip_longest
from math import gcd as _int_gcd, lcm
from operator import add


class ExactArithError(ValueError):
    """Contract violation: inexact division, variable mismatch, zero input."""


def _frac(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not a rational scalar: {c!r}")


def frac_str(c) -> str:
    """Canonical string for a rational: "7", "-7", "45/4"."""
    c = _frac(c)
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _parse_frac(s) -> Fraction:
    """The rational that frac_str writes as the string s, "num" or
    "num/den", each part read by int, so the interpreter's cap on the digits
    of an int bounds its size; Fraction(s) would also read "1e1000000"."""
    if not isinstance(s, str):
        raise TypeError(f"coefficient {s!r} is not a string")
    num, slash, den = s.partition("/")
    return Fraction(int(num), int(den) if slash else 1)


def _exact_div(x, y):
    """x / y for ints or UniPolys, raising when y does not divide x."""
    q, r = divmod(x, y)
    if r:
        raise ExactArithError("inexact division")
    return q


class UniPoly:
    """Dense univariate polynomial over Q, stored as integers over one denominator.

    The polynomial is sum(num[k] * var**k) / den with num a tuple of ints
    without trailing zeros, den > 0 and gcd(den, *num) == 1.  That form is
    canonical, so equal polynomials compare equal structurally.  Treated as
    immutable.
    """

    __slots__ = ("var", "num", "den")

    def __init__(self, coeffs=(), var: str = "u"):
        cs = [c if type(c) is int else _frac(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        # den is the least common denominator, so the numerators are coprime to it
        self.var = var
        self.num = tuple(_trim([c.numerator * (den // c.denominator) for c in cs]))
        self.den = den

    @classmethod
    def from_ints(cls, num, den: int = 1, var: str = "u") -> "UniPoly":
        """sum(num[k] * var**k) / den for ints num and a nonzero int den."""
        num = _trim(list(num))
        g = 1 if den == 1 else _int_gcd(den, *num)
        g = -g if den < 0 else g
        self = object.__new__(cls)
        self.var = var
        self.num = tuple(num) if g == 1 else tuple(c // g for c in num)
        self.den = den // g
        return self

    @classmethod
    def zero(cls, var: str = "u") -> "UniPoly":
        return cls((), var)

    @classmethod
    def const(cls, c, var: str = "u") -> "UniPoly":
        return cls((c,), var)

    @classmethod
    def gen(cls, var: str = "u") -> "UniPoly":
        return cls((0, 1), var)

    @classmethod
    def from_json(cls, obj: dict) -> "UniPoly":
        return cls([_parse_frac(s) for s in obj["coeffs"]], obj["var"])

    def to_json(self) -> dict:
        return {"var": self.var, "coeffs": [frac_str(c) for c in self.coeffs]}

    def with_var(self, var: str) -> "UniPoly":
        """The same coefficients in another variable."""
        return UniPoly.from_ints(self.num, self.den, var)

    @property
    def coeffs(self) -> tuple:
        """Ascending coefficients as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    @property
    def lc(self) -> Fraction:
        return Fraction(self.num[-1], self.den) if self.num else Fraction(0)

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.num):
            return Fraction(self.num[k], self.den)
        return Fraction(0)

    def _check(self, other: "UniPoly") -> None:
        if self.var != other.var and self.num and other.num:
            raise ExactArithError(f"variable mismatch: {self.var} vs {other.var}")

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(other, self.var)
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.num != other.num or self.den != other.den:
            return False
        return self.degree <= 0 or self.var == other.var

    def __hash__(self):
        # __eq__ ignores the variable of a constant, so the hash must too
        return hash((self.var if self.degree > 0 else "", self.num, self.den))

    def __neg__(self) -> "UniPoly":
        return UniPoly.from_ints([-c for c in self.num], self.den, self.var)

    def __add__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(other, self.var)
        if not isinstance(other, UniPoly):
            return NotImplemented
        self._check(other)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        out = [sa * a + sb * b for a, b in zip_longest(self.num, other.num, fillvalue=0)]
        return UniPoly.from_ints(out, den, self.var if self.num else other.var)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, UniPoly) else UniPoly.const(-_frac(other), self.var))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            return UniPoly.from_ints(
                [c.numerator * a for a in self.num], c.denominator * self.den, self.var
            )
        if not isinstance(other, UniPoly):
            return NotImplemented
        self._check(other)
        return UniPoly.from_ints(
            _conv(self.num, other.num),
            self.den * other.den,
            self.var if self.num else other.var,
        )

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "UniPoly":
        if k < 0:
            raise ExactArithError("negative power of a polynomial")
        out = UniPoly.const(1, self.var)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __divmod__(self, other: "UniPoly"):
        """Integer pseudo-division (_pseudo_divmod) of the numerators: with
        c = lc(b.num) and e = deg a - deg b + 1, c**e * a.num = Q * b.num + R,
        so a = (Q * b.den) * b + R over the one denominator c**e * a.den."""
        if not isinstance(other, UniPoly) or other.is_zero:
            raise ExactArithError("division by zero polynomial")
        self._check(other)
        q, r = _pseudo_divmod(self.num, other.num)
        den = other.num[-1] ** len(q) * self.den
        return (UniPoly.from_ints([x * other.den for x in q], den, self.var),
                UniPoly.from_ints(r, den, self.var))

    def __mod__(self, other):
        return divmod(self, other)[1]

    exact_div = _exact_div

    def derivative(self) -> "UniPoly":
        return UniPoly.from_ints(
            [k * c for k, c in enumerate(self.num)][1:], self.den, self.var
        )

    def __call__(self, value):
        """Horner evaluation; value may live in any commutative Q-algebra.

        The numerators are combined first and divided by den once, at the end.
        At a Fraction a/b the Horner sum runs in ints, sum(num[k] a^k
        b^(deg - k)), and one Fraction divides it by den * b^deg.
        """
        if not self.num:
            return Fraction(0)
        if type(value) is Fraction:
            a, b = value.numerator, value.denominator
            acc = self.num[-1]
            bk = 1
            for c in reversed(self.num[:-1]):
                bk *= b
                acc = acc * a + c * bk
            return Fraction(acc, self.den * bk)
        acc = None
        for c in reversed(self.num):
            acc = c if acc is None else acc * value + c
        return acc if self.den == 1 else acc * Fraction(1, self.den)

    def monic(self) -> "UniPoly":
        if self.is_zero or self.num[-1] == self.den:
            return self
        return UniPoly.from_ints(self.num, self.num[-1], self.var)

    def primitive(self) -> "UniPoly":
        """Integer-coefficient associate with content 1, positive lc."""
        if self.is_zero:
            return self
        g = _int_gcd(*self.num) * (1 if self.num[-1] > 0 else -1)
        return UniPoly.from_ints([c // g for c in self.num], 1, self.var)

    def inflate(self, k: int) -> "UniPoly":
        """Return p(var**k)."""
        if k < 1:
            raise ExactArithError("inflate needs k >= 1")
        out = [0] * (k * self.degree + 1) if self.num else []
        out[::k] = self.num
        return UniPoly.from_ints(out, self.den, self.var)

    def __str__(self) -> str:
        v = self.var
        return _terms_str((self[k], "" if k == 0 else v if k == 1 else f"{v}^{k}")
                          for k in range(self.degree, -1, -1))

    def __repr__(self) -> str:
        return f"UniPoly({self})"


class BiPoly:
    """Bivariate polynomial over Q, stored densely as rows of UniPolys.

    rows[j] is the UniPoly in vars[0] that multiplies vars[1]**j, and the
    tuple has no trailing zero row, so equal polynomials have equal rows.
    The arithmetic is UniPoly's: integer numerators over one denominator
    per row.  Treated as immutable.
    """

    __slots__ = ("vars", "rows")

    def __init__(self, terms=None, vars=("r", "x")):
        """terms maps (i, j), two ints >= 0, to the coefficient of
        vars[0]**i * vars[1]**j."""
        vars = _two_vars(vars)
        grid = []
        for (i, j), c in (terms or {}).items():
            grid.extend([] for _ in range(j + 1 - len(grid)))
            grid[j].extend([0] * (i + 1 - len(grid[j])))
            grid[j][i] = c
        self.vars = vars
        self.rows = tuple(_trim([UniPoly(row, vars[0]) for row in grid]))

    @classmethod
    def _from_rows(cls, rows, vars) -> "BiPoly":
        """rows are UniPolys in vars[0]; trailing zero rows are dropped."""
        self = object.__new__(cls)
        self.vars = vars
        self.rows = tuple(_trim(list(rows)))
        return self

    @classmethod
    def const(cls, c, vars=("r", "x")) -> "BiPoly":
        return cls({(0, 0): c}, vars)

    @classmethod
    def gen(cls, name: str, vars=("r", "x")) -> "BiPoly":
        if name == vars[0]:
            return cls({(1, 0): 1}, vars)
        if name == vars[1]:
            return cls({(0, 1): 1}, vars)
        raise ExactArithError(f"{name} is not one of {vars}")

    @classmethod
    def from_json(cls, obj: dict) -> "BiPoly":
        terms = {tuple(t["exp"]): _parse_frac(t["coeff"]) for t in obj["terms"]}
        return cls(terms, tuple(obj["vars"]))

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [{"coeff": frac_str(c), "exp": list(e)} for e, c in self._terms()],
        }

    def _terms(self) -> list:
        """((i, j), c) for each nonzero c*vars[0]**i*vars[1]**j, ascending in (i, j)."""
        return sorted(((i, j), Fraction(c, row.den))
                      for j, row in enumerate(self.rows)
                      for i, c in enumerate(row.num) if c)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def _axis(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise ExactArithError(f"{var} is not one of {self.vars}") from None

    def total_degree(self) -> int:
        return max((j + row.degree for j, row in enumerate(self.rows) if row), default=-1)

    def degree_in(self, var: str) -> int:
        if self._axis(var):
            return len(self.rows) - 1
        return max((row.degree for row in self.rows), default=-1)

    def _check(self, other: "BiPoly") -> None:
        if self.vars != other.vars:
            raise ExactArithError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = BiPoly.const(other, self.vars)
        if not isinstance(other, BiPoly):
            return NotImplemented
        if self.rows != other.rows:
            return False
        return not self.rows or self.vars == other.vars or self.total_degree() == 0

    def __hash__(self):
        # equal polynomials have equal rows, and a row's hash ignores the
        # variable exactly where __eq__ lets the variables differ
        return hash(self.rows)

    def __neg__(self) -> "BiPoly":
        return BiPoly._from_rows([-row for row in self.rows], self.vars)

    def __add__(self, other) -> "BiPoly":
        if isinstance(other, (int, Fraction)):
            other = BiPoly.const(other, self.vars)
        if not isinstance(other, BiPoly):
            return NotImplemented
        self._check(other)
        zero = UniPoly.zero(self.vars[0])
        return BiPoly._from_rows(
            [a + b for a, b in zip_longest(self.rows, other.rows, fillvalue=zero)],
            self.vars,
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, (int, Fraction)):
            return BiPoly._from_rows([row * other for row in self.rows], self.vars)
        if not isinstance(other, BiPoly):
            return NotImplemented
        self._check(other)
        out = [UniPoly.zero(self.vars[0])] * (len(self.rows) + len(other.rows) - 1)
        for i, a in enumerate(self.rows):
            if a:
                for j, b in enumerate(other.rows):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return BiPoly._from_rows(out, self.vars)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "BiPoly":
        if k < 0:
            raise ExactArithError("negative power of a polynomial")
        out = BiPoly.const(1, self.vars)
        for _ in range(k):
            out = out * self
        return out

    def coeff_list_in(self, var: str) -> list:
        """Ascending coefficients in `var`, each a UniPoly in the other variable."""
        if self._axis(var):
            return list(self.rows)
        return _transpose(self.rows, self.vars[1])

    @classmethod
    def from_coeff_list(cls, coeffs, var: str, vars=("r", "x")) -> "BiPoly":
        """Inverse of coeff_list_in: coeffs[k] multiplies var**k."""
        vars = _two_vars(vars)
        if vars.index(var):
            return cls._from_rows([p if p.var == vars[0] else p.with_var(vars[0]) for p in coeffs], vars)
        return cls._from_rows(_transpose(coeffs, vars[0]), vars)

    def exchange_vars(self) -> "BiPoly":
        """Substitute vars[0] <-> vars[1], keeping the variable order."""
        return BiPoly._from_rows(_transpose(self.rows, self.vars[0]), self.vars)

    def content(self) -> Fraction:
        """Signed content wrt the lex-leading term: self == content()*primitive()."""
        if not self.rows:
            return Fraction(0)
        # each row's gcd(num)/den is in lowest terms, so these combine directly
        c = Fraction(_int_gcd(*(a for row in self.rows for a in row.num)),
                     lcm(*(row.den for row in self.rows)))
        top = self.degree_in(self.vars[0])
        lead = [row for row in self.rows if row.degree == top][-1]
        return c if lead.num[-1] > 0 else -c

    def primitive(self) -> "BiPoly":
        """Integer-coefficient associate, content 1, lex-leading coefficient > 0."""
        if not self.rows:
            return self
        return self * (1 / self.content())

    def __str__(self) -> str:
        def mono(e):
            i, j = e
            bits = []
            for name, k in ((self.vars[0], i), (self.vars[1], j)):
                if k == 1:
                    bits.append(name)
                elif k > 1:
                    bits.append(f"{name}^{k}")
            return "*".join(bits)
        return _terms_str((c, mono(e)) for e, c in reversed(self._terms()))

    def __repr__(self) -> str:
        return f"BiPoly({self})"


def _terms_str(terms) -> str:
    """The signed sum of (coefficient, monomial) pairs in the given order,
    zero coefficients skipped: "-3*u^2 + u - 1/2", or "0" when none is left.
    An empty monomial is the constant term."""
    out = ""
    for c, mono in terms:
        if not c:
            continue
        mag = abs(c)
        body = frac_str(mag) if not mono else mono if mag == 1 else f"{frac_str(mag)}*{mono}"
        if out:
            out += f" {'-' if c < 0 else '+'} {body}"
        else:
            out = body if c > 0 else "-" + body
    return out or "0"


def _two_vars(vars) -> tuple:
    vars = tuple(vars)
    if len(vars) != 2 or vars[0] == vars[1]:
        raise ExactArithError(f"need two distinct variables, got {vars}")
    return vars


def _transpose(polys, var: str) -> list:
    """out[i] = sum over j of polys[j][i] * var**j: swaps the two axes of a
    list of UniPolys, on their numerators over the common denominator."""
    den = lcm(*(p.den for p in polys))
    scaled = [[c * (den // p.den) for c in p.num] for p in polys]
    return [UniPoly.from_ints(col, den, var) for col in zip_longest(*scaled, fillvalue=0)]


# ---------------------------------------------------------------------------
# Ascending coefficient lists: the pseudo-division kernel and GF(p) arithmetic
# ---------------------------------------------------------------------------


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


# Fewest nonzero entries in each operand for which _conv packs the product.
_KRONECKER_MIN_TERMS = 8


def _conv(a, b):
    """Product of two ascending int coefficient lists (or tuples).

    Long dense operands of comparable size take one CPython bignum product by
    Kronecker substitution (_conv_kronecker): both need at least
    _KRONECKER_MIN_TERMS nonzero entries, and the larger of their coefficient
    bit lengths may exceed four times the smaller by at most 64 bits.  Every
    other pair takes the row loop (_conv_rows), which skips zero entries and
    wins on short, sparse or unbalanced operands, where a packed slot sized
    for the larger coefficients would mostly carry zero bits."""
    if not a or not b:
        return []
    if (len(a) >= _KRONECKER_MIN_TERMS and len(b) >= _KRONECKER_MIN_TERMS
            and len(a) - a.count(0) >= _KRONECKER_MIN_TERMS
            and len(b) - b.count(0) >= _KRONECKER_MIN_TERMS):
        ba = max(max(a), -min(a)).bit_length()
        bb = max(max(b), -min(b)).bit_length()
        if ba <= 4 * bb + 64 and bb <= 4 * ba + 64:
            return _conv_kronecker(a, b, ba + bb)
    return _conv_rows(a, b)


def _conv_rows(a, b):
    """Schoolbook product: one row update per nonzero entry of the shorter
    operand."""
    if len(a) > len(b):
        a, b = b, a
    lb = len(b)
    out = [0] * (len(a) + lb - 1)
    for i, x in enumerate(a):
        if x:
            out[i:i + lb] = [s + x * y for s, y in zip(out[i:i + lb], b)]
    return out


def _conv_kronecker(a, b, bits):
    """Product by Kronecker substitution (von zur Gathen and Gerhard, 8.4),
    for nonempty a and b whose coefficients' bit lengths sum to at most bits.

    Each operand becomes one int, its entries in byte-aligned signed slots of
    w bits, so a * b is one bignum product whose slot k holds the k-th
    product coefficient.  |c_k| < min(len a, len b) * 2**bits, so w =
    bits + bits(min len) + 1 rounded up to bytes holds every c_k as a signed
    slot.  Adding 2**(w - 1) to every slot makes them all nonnegative, so the
    slots are read back with no borrow."""
    n = len(a) + len(b) - 1
    wb = (bits + min(len(a), len(b)).bit_length() + 8) // 8
    bias = int.from_bytes((bytes(wb - 1) + b"\x80") * n, "little")
    raw = (_kronecker_pack(a, wb) * _kronecker_pack(b, wb) + bias).to_bytes(n * wb, "little")
    half = 1 << (8 * wb - 1)
    return [int.from_bytes(raw[i:i + wb], "little") - half for i in range(0, n * wb, wb)]


def _kronecker_pack(a, wb):
    """sum(a[i] * 2**(8 * wb * i)) for ints |a[i]| < 2**(8 * wb - 1), the
    value at u = 2**(8 * wb) of the polynomial with coefficients a.  Each
    entry goes into its slot biased by 2**(8 * wb - 1), which makes it
    nonnegative and below 2**(8 * wb), so the slots are written unsigned
    with no borrow between them, and the packed bias is taken off after
    the read."""
    bias = (bytes(wb - 1) + b"\x80") * len(a)
    raw = b"".join(map(int.to_bytes, map(add, a, repeat(1 << 8 * wb - 1)), repeat(wb), repeat("little")))
    return int.from_bytes(raw, "little") - int.from_bytes(bias, "little")


def _pseudo_divmod(a, b):
    """(q, r) with c**e * a = q * b + r and deg r < deg b, for coefficient
    lists over an integral domain (ints, or UniPolys as the PRS's coefficients),
    c = b[-1] and e = len(a) - len(b) + 1 (Knuth, TAOCP 2, 4.6.1, Algorithm R).
    r is the low len(b) - 1 entries, untrimmed, or a itself when e <= 0 (then
    q = []).  With c == 1 it is long division, exact over any ring."""
    db = len(b) - 1
    c = b[-1]
    scale = c != 1
    low = b[:db]
    r = list(a)
    e = len(r) - db
    q = [0] * max(e, 0)
    for k in range(e - 1, -1, -1):
        t = r.pop()
        if scale:
            q[k + 1:] = [c * x for x in q[k + 1:]]
            r = [c * x for x in r]
        q[k] = t
        if t:
            r[k:] = [s - t * y for s, y in zip(r[k:], low)]
    return q, r


def _gf_eval(a, x: int, p: int) -> int:
    """sum(a[i] * x**i) mod p."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


# GF(p) for the small primes: one residue per byte
# ---------------------------------------------------------------------------
#
# Modulo a prime p in _GFB_PRIMES a polynomial is `bytes`, one residue per
# byte, low degree first, without trailing zero bytes.  Its multiple by c is
# one translate by row c of _gfb_tables(p), a sum of such multiples is one
# bignum add of the bytes read as little-endian ints, and one translate by
# row 1 (v -> v mod p) reduces the sum, as long as no byte carried into the
# next (Lamport, "Multiple byte processing with full-word instructions",
# CACM 1975).  A remainder step with a two-term quotient adds two multiples
# of the divisor to the dividend, so three residues share a byte:
# 3 (p - 1) <= 255, that is p <= 86.  The quotient terms are read off
# translate rows as well, through the inverses mod p that _gfb_tables(p)
# keeps beside the rows, so a step computes no residue in Python.  _gfb_rem
# runs the step for division and the Frobenius columns; _gfb_gcd runs the
# same step inline in its Euclid loop.
_GFB_PRIMES = tuple(p for p in range(2, 255 // 3 + 2) if all(p % d for d in range(2, p)))

_GFB_TABLES = {}


def _gfb_tables(p):
    """The translate rows and the inverses mod p: row c < p maps every byte
    v to c*v mod p, and byte c of the inverses is 1/c mod p (byte 0 is 0).

    Built on the first use of p and kept; row c is row c - 1 plus row 1,
    added as ints (each byte below 2p) and reduced by row 1."""
    tables = _GFB_TABLES.get(p)
    if tables is None:
        mod = bytes(v % p for v in range(256))
        one = int.from_bytes(mod, "little")
        rows = [bytes(256), mod]
        for _ in range(2, p):
            rows.append((int.from_bytes(rows[-1], "little") + one).to_bytes(256, "little").translate(mod))
        tables = _GFB_TABLES[p] = rows, bytes([0] + [pow(c, -1, p) for c in range(1, p)])
    return tables


def _gfb(a, p):
    """Byte polynomial of an int coefficient list reduced mod p; any p < 256,
    though the _gfb_* arithmetic needs p in _GFB_PRIMES."""
    return bytes([c % p for c in a]).rstrip(b"\0")


def _gfb_monic(a, p):
    if not a or a[-1] == 1:
        return a
    rows, inv = _gfb_tables(p)
    return a.translate(rows[inv[a[-1]]])


def _gfb_deriv(a, p):
    return bytes([k * c % p for k, c in enumerate(a)][1:]).rstrip(b"\0")


def _gfb_rem(a, b, p, q=None):
    """Remainder of byte polynomials mod p, b of degree at least 1; the
    quotient's terms go into the bytearray q when one is given.

    Two quotient terms at a time, both negated and read through the row of
    -1/lc(b): n1 = -c1 off the top byte of the running remainder, n0 = -c0
    off the next byte plus b1 * n1.  Then r - (c1 x + c0) x^k b is one add
    of r and two translated, shifted copies of b, and one reduction; each
    byte of the sum holds at most 3 (p - 1)."""
    rows, inv = _gfb_tables(p)
    mod = rows[1]
    db = len(b) - 1
    neg = rows[p - inv[b[-1]]]
    b1 = rows[b[-2]]
    while len(a) > db:
        k = len(a) - 1 - db
        n1 = neg[a[-1]]
        s = int.from_bytes(a, "little") + (int.from_bytes(b.translate(rows[n1]), "little") << 8 * k)
        if k:
            n0 = neg[a[-2] + b1[n1]]
            s += int.from_bytes(b.translate(rows[n0]), "little") << 8 * k - 8
        if q is not None:
            q[k] = -n1 % p
            if k:
                q[k - 1] = -n0 % p
        a = s.to_bytes(len(a), "little").translate(mod).rstrip(b"\0")
    return a


def _gfb_divmod(a, b, p):
    """Quotient and remainder of byte polynomials mod p, b of degree at
    least 1."""
    q = bytearray(max(len(a) - len(b) + 1, 0))
    r = _gfb_rem(a, b, p, q)
    return bytes(q), r


def _gfb_gcd(a, b, p):
    """Monic gcd of byte polynomials mod p.

    Euclid's loop with _gfb_rem's step written out inline.  Most remainders
    of a gcd take one step, so a call to _gfb_rem, with its table lookup and
    set-up, cost about as much as the step; here the rows of each divisor
    are read once, and a step reads its two quotient terms off them, then
    adds two translates and reduces."""
    rows, inv = _gfb_tables(p)
    mod = rows[1]
    while len(b) > 1:
        db = len(b) - 1
        neg = rows[p - inv[b[-1]]]
        b1 = rows[b[-2]]
        while len(a) > db:
            k = len(a) - 1 - db
            n1 = neg[a[-1]]
            s = int.from_bytes(a, "little") + (int.from_bytes(b.translate(rows[n1]), "little") << 8 * k)
            if k:
                n0 = neg[a[-2] + b1[n1]]
                s += int.from_bytes(b.translate(rows[n0]), "little") << 8 * k - 8
            a = s.to_bytes(len(a), "little").translate(mod).rstrip(b"\0")
        a, b = b, a
    return b"\1" if b else _gfb_monic(a, p)


# ---------------------------------------------------------------------------
# gcd, resultants, characteristic polynomial
# ---------------------------------------------------------------------------


def _deg(a) -> int:
    return len(a) - 1


def _prs_resultant(A, B, one):
    """Resultant of two coefficient lists via the subresultant PRS.

    Works over any integral domain whose elements support +, -, *, ** and
    _exact_div.  Convention: res(p, q) = lc(p)**deg(q) times the product of
    q over the roots of p.
    """
    a = _trim(list(A))
    b = _trim(list(B))
    if not a or not b:
        raise ExactArithError("resultant of zero polynomial")
    s = 1
    if _deg(a) < _deg(b):
        if (_deg(a) % 2) and (_deg(b) % 2):
            s = -s
        a, b = b, a
    if _deg(b) == 0:
        res = b[0] ** _deg(a) if _deg(a) > 0 else one
        return res if s == 1 else -res
    g = one
    h = one
    while True:
        da, db = _deg(a), _deg(b)
        delta = da - db
        if (da % 2) and (db % 2):
            s = -s
        r = _trim(_pseudo_divmod(a, b)[1])
        if not r:
            return one * 0
        divisor = g * h ** delta
        a, b = b, _trim([_exact_div(c, divisor) for c in r])
        g = a[-1]
        if delta > 0:
            h = _exact_div(g ** delta, h ** (delta - 1))
        if _deg(b) == 0:
            break
    da = _deg(a)
    res = _exact_div(b[-1] ** da, h ** (da - 1))
    return res if s == 1 else -res


def resultant_in(p: BiPoly, q: BiPoly, var: str) -> UniPoly:
    """Eliminate `var` from two bivariate polynomials; UniPoly in the other."""
    p._check(q)
    one = UniPoly.const(1, p.vars[1 - p._axis(var)])
    return _prs_resultant(p.coeff_list_in(var), q.coeff_list_in(var), one)


def poly_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd over Q (primitive PRS with a modular coprimality fast path)."""
    if p.is_zero and q.is_zero:
        return UniPoly.zero(p.var)
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    p._check(q)
    var = p.var
    # A constant gcd modulo one prime that divides neither leading coefficient
    # certifies coprimality over Q.  It is read off the numerators as they
    # are: a prime that divides a content also divides that leading
    # coefficient, so it is skipped.  A coprime pair has a nonconstant gcd
    # mod p only when p divides their resultant, so a second prime is tried
    # before the PRS.
    usable = 0
    for pr in reversed(_GFB_PRIMES):
        if p.num[-1] % pr == 0 or q.num[-1] % pr == 0:
            continue
        if len(_gfb_gcd(_gfb(p.num, pr), _gfb(q.num, pr), pr)) == 1:
            return UniPoly.const(1, var)
        usable += 1
        if usable == 2:
            break
    a = p.primitive()
    b = q.primitive()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        a, b = b, UniPoly.from_ints(_pseudo_divmod(a.num, b.num)[1], 1, var).primitive()
    return a.monic()
