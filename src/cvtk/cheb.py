"""Chebyshev-like trace polynomial sequences.

f_0 = 0, f_1 = 1, f_{j+1} = u*f_j - f_{j-1}: the trace of the j-th power of
an SL2 element with trace u satisfies tr(M^j) = u*f_j(u) - 2*f_{j-1}(u).
g_j = f_j - f_{j-1} has degree j-1 (monic), and the Wronskian-like
G_j = g_{j+1}'*g_j - g_{j+1}*g_j' is monic of degree 2j-2; its roots are the
r-coordinates where the two components of the character variety meet.

Where the values f_j(u) at one point u are wanted for several j, f_values
runs the recurrence once at u, in u's own ring, and gives all of them at the
cost of one product each; that is how the trace calculus and the X model
form their f_j values.  The polynomials themselves, f_poly(j), g_poly(j)
and G_poly(j), all lie in Z[u] and are built on integer coefficient lists:
the recurrence, the difference and the Wronskian run on the numerators, and
each cached entry is one UniPoly built at the end.

identity_checks decides its product identities, such as f_j^2 - f_{j-1}
f_{j+1} = 1, without a polynomial product.  An integer polynomial whose
coefficients are all below 2**w / 2 in absolute value is zero exactly when
its value at u = 2**w is: otherwise its lowest nonzero coefficient would be
a nonzero multiple of 2**w.  So each entry is packed once into its value at
such a power of two (the Kronecker substitution of von zur Gathen and
Gerhard, Modern Computer Algebra, 8.4), w is bounded from the coefficient
bit lengths of the entries, and each identity is one int equality.
"""

from __future__ import annotations

from operator import sub

from .ratpoly import UniPoly, _conv, _kronecker_pack, poly_gcd

_g: dict = {}
_G: dict = {}


def require_family_index(n) -> None:
    """Reject anything but an integer n >= 2, the index of the knot J(2n, 2n)."""
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"the knot family is indexed by integers n >= 2, got {n!r}")


def _minus(a, b) -> list:
    """a - b for integer coefficient lists with len(b) <= len(a)."""
    out = list(a)
    out[:len(b)] = map(sub, out, b)
    return out


def _deriv(a) -> list:
    """The derivative of the integer polynomial with coefficient list a."""
    return [k * c for k, c in enumerate(a)][1:]


def f_poly(j: int) -> UniPoly:
    """f_j, degree j-1 for j >= 1; f_0 = 0.

    The table _f (entry j + 1 is f_j) is extended on the numerators:
    f_{j+1} = u f_j - f_{j-1} is f_j's coefficients moved up one degree
    minus f_{j-1}'s, and one UniPoly is built per entry.  A new entry reads
    only the numerators of the two below it.  The identity tests replace
    entries only in a table already filled past them, so no entry is ever
    extended from a replaced one.
    """
    if j < 0:
        raise ValueError("f_poly needs j >= 0")
    while j + 2 > len(_f):
        _f.append(UniPoly.from_ints(_minus([0, *_f[-1].num], _f[-2].num), 1, "u"))
    return _f[j + 1]


def f_values(value, top: int, table: list = None) -> list:
    """f_{-1}(value), ..., f_top(value) from one pass of the recurrence.

    Entry j + 1 holds f_j(value), computed as value * f_{j-1} - f_{j-2} in
    the ring of value (int, Fraction, NFElem, UniPoly, BiPoly, complex, ...)
    from f_{-1} = -1 and f_0 = 0.  A table returned by an earlier call for
    the same value may be passed in; it is extended in place through f_top
    (and returned whole if it already reaches further).
    """
    if top < -1:
        raise ValueError("f_values needs top >= -1")
    if table is None:
        zero = value * 0
        table = [zero - 1, zero][: top + 2]
    while len(table) < top + 2:
        table.append(value * table[-1] - table[-2])
    return table


# f_poly's table at u: entry j + 1 is f_j, from f_{-1} = -1 and f_0 = 0.
_f: list = [UniPoly.from_ints([-1]), UniPoly.from_ints([])]


def g_poly(j: int) -> UniPoly:
    """g_j = f_j - f_{j-1}, monic of degree j-1; needs j >= 1."""
    if j < 1:
        raise ValueError("g_poly needs j >= 1")
    if j not in _g:
        _g[j] = UniPoly.from_ints(_minus(f_poly(j).num, f_poly(j - 1).num), 1, "u")
    return _g[j]


def G_poly(j: int) -> UniPoly:
    """G_j = g_{j+1}'*g_j - g_{j+1}*g_j', monic of degree 2j-2; needs j >= 1.

    The Wronskian is formed on the integer numerators, two products and one
    difference of coefficient lists, and one UniPoly is built from it.  It
    reads only g_j and g_{j+1}, so a single cold G_n pays for no smaller
    index.  The identity G_j = G_{j-1} + g_j^2, which would, is the tests'
    independent oracle; with G_1 = g_1^2 = 1 it gives
    G_n = 1 + g_2^2 + ... + g_n^2 >= 1 on the real line, so G_n has no real
    root and its 2n - 2 roots are n - 1 pairs of complex conjugates.
    """
    if j < 1:
        raise ValueError("G_poly needs j >= 1")
    if j not in _G:
        a, b = g_poly(j + 1).num, g_poly(j).num
        _G[j] = UniPoly.from_ints(_minus(_conv(_deriv(a), b), _conv(a, _deriv(b))), 1, "u")
    return _G[j]


def square_mod_two(G: UniPoly, f: UniPoly) -> bool:
    """Whether the integer polynomials G and f satisfy G = f^2 mod 2.

    Squaring is the Frobenius map over GF(2): f^2 = sum f_k x^(2k) mod 2, so
    G mod 2 is compared with the parities of f moved from degree k to degree
    2k, and no product is formed.  A G or f with a non-integer coefficient
    is not congruent.
    """
    if G.den != 1 or f.den != 1:
        return False
    parity = [c & 1 for c in G.num]
    square = [0] * (2 * len(f.num))
    square[::2] = [c & 1 for c in f.num]
    size = max(len(parity), len(square))
    return parity + [0] * (size - len(parity)) == square + [0] * (size - len(square))


def _max_bits(*polys) -> int:
    """The largest bit length of a numerator coefficient of polys."""
    return max(max(max(p.num, default=0), -min(p.num, default=0)).bit_length() for p in polys)


def identity_checks(j: int) -> dict:
    """The nine structural identities at index j, as {label: bool}.

    These are the working facts the rest of the library leans on: G_j is the
    squarefree intersection polynomial, f_j(2) = j keeps r = 2 off it, and
    the Wronskian relations drive the trace recursions.

    The four product identities (shifted-trace, double-index and the two
    Wronskians) are decided at u = 2**w.  Each of f_{j-1}, f_j, f_{j+1},
    g_j, g_{j+1}, G_j and f_{2j} is packed once into its value there, and
    each identity is an int equality of five products and some shifts.  w
    is read off the entries themselves, whatever they hold: it is a multiple
    of 8 with w >= M + 4, where M is the largest of

    - 2*b + bits(l), with b the largest coefficient bit length and l the
      greatest length of the f and g entries, so every coefficient of a
      product of two of them is below 2**M;
    - the coefficient bit lengths of G_j and of f_{2j};
    - bits(2j).

    Every coefficient of each difference is then below 2**(M + 3), less
    than half of 2**w, so a nonzero difference cannot vanish at 2**w.  An
    entry with a denominator other than 1 fails the identities it enters.
    """
    if j < 2:
        raise ValueError("identity_checks needs j >= 2")
    fg = fjm, fj, fjp, gj, gjp = f_poly(j - 1), f_poly(j), f_poly(j + 1), g_poly(j), g_poly(j + 1)
    Gj = G_poly(j)
    f2j = f_poly(2 * j)
    top = max(
        2 * _max_bits(*fg) + max(len(p.num) for p in fg).bit_length(),
        _max_bits(Gj, f2j),
        (2 * j).bit_length(),
    )
    wb = (top + 11) // 8  # w = 8 * wb >= top + 4
    w = 8 * wb
    vfjm, vfj, vfjp, vgj, vgjp, vG, vf2j = (_kronecker_pack(p.num, wb) for p in (*fg, Gj, f2j))
    vfj2 = vfj * vfj
    return {
        "shifted-trace": Gj.den == f2j.den == 1 and (vG << w) + 2 * vG == vf2j + 2 * j,
        "double-index": f2j.den == fj.den == fjm.den == 1 and vf2j == (vfj2 << w) - 2 * vfj * vfjm,
        "value-at-two": fj(2) == j,
        "f-squarefree": poly_gcd(fj, fj.derivative()).degree == 0,
        "G-f-coprime": poly_gcd(Gj, fj).degree == 0,
        "f-wronskian": fj.den == fjm.den == fjp.den == 1 and vfj2 - vfjm * vfjp == 1,
        "g-wronskian": fj.den == fjm.den == gj.den == gjp.den == 1 and vfj * vgj - vfjm * vgjp == 1,
        "mod-two": square_mod_two(Gj, fj),
        "G-squarefree": poly_gcd(Gj, Gj.derivative()).degree == 0,
    }


def failed_identities(j_max: int) -> list:
    """(j, label) pairs of identity failures for 2 <= j <= j_max."""
    out = []
    for j in range(2, j_max + 1):
        for label, ok in identity_checks(j).items():
            if not ok:
                out.append((j, label))
    return out
