"""Free words in two meridian generators and numeric 2x2 verification.

The knot group of the n-th member of the family is

    < a, b : a w^n = w^n b >,   w = (a b^-1)^n (a^-1 b)^n,

and the same group has the standard two-bridge presentation attached to the
normal form (4n^2 - 1, 2n) (equivalently (4n^2 - 1, 4n^2 - 2n - 1)), whose
conjugating word comes from the sign sequence eps_i = (-1)^floor(i q / p).
Words here are plain freely reduced strings over a, b and their inverses
A, B; the two presentations are never compared letter by letter, only
through numeric matrix satisfaction.

The numeric side realizes characters through the standard parameterization

    A = (mu 1; 0 mu^-1),   B = (mu 0; 2-r mu^-1),

for which tr(A) = tr(B) = mu + 1/mu and tr(A B^-1) = r, evaluates words by
left-to-right multiplication, and measures how well relations hold.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import exp, gcd, log, pi

import mpmath

from .cheb import require_family_index
from .ratpoly import ExactArithError, UniPoly

_INV = {"a": "A", "A": "a", "b": "B", "B": "b"}


def _reduce(letters: str) -> str:
    stack = []
    for ch in letters:
        if ch not in _INV:
            raise ValueError(f"invalid letter {ch!r}; words use a, A, b, B")
        if stack and stack[-1] == _INV[ch]:
            stack.pop()
        else:
            stack.append(ch)
    return "".join(stack)


class FreeWord:
    """A freely reduced word in a, b; capital letters are inverses."""

    __slots__ = ("letters",)

    def __init__(self, letters=""):
        if isinstance(letters, FreeWord):
            letters = letters.letters
        self.letters = _reduce(letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeWord) and self.letters == other.letters

    def __hash__(self):
        return hash(("FreeWord", self.letters))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord(self.letters + FreeWord(other).letters)

    def inverse(self) -> "FreeWord":
        return FreeWord("".join(_INV[ch] for ch in reversed(self.letters)))

    def __pow__(self, k: int) -> "FreeWord":
        if k < 0:
            return self.inverse() ** (-k)
        out = FreeWord("")
        for _ in range(k):
            out = out * self
        return out

    def exponent_sum(self, generator: str) -> int:
        if generator not in ("a", "b"):
            raise ValueError("generator must be 'a' or 'b'")
        return self.letters.count(generator) - self.letters.count(_INV[generator])

    def total_exponent_sum(self) -> int:
        return self.exponent_sum("a") + self.exponent_sum("b")

    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        return self.letters or "1"

    def __repr__(self) -> str:
        return f"FreeWord({self.letters!r})"


def two_bridge_word(p: int, q: int) -> FreeWord:
    """The standard conjugating word of the (p, q) two-bridge presentation.

    a^{eps_1} b^{eps_2} a^{eps_3} ... b^{eps_{p-1}} with
    eps_i = (-1)^floor(i q / p); the group relation is  V a = b V.
    """
    if not (isinstance(p, int) and isinstance(q, int)):
        raise ValueError("p and q must be integers")
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd integer >= 3, got {p}")
    if not 0 < q < p:
        raise ValueError(f"q must satisfy 0 < q < p, got {q}")
    if gcd(p, q) != 1:
        raise ValueError(f"p and q must be coprime, got ({p}, {q})")
    out = []
    for i in range(1, p):
        base = "a" if i % 2 == 1 else "b"
        if (i * q // p) % 2 == 1:
            base = _INV[base]
        out.append(base)
    return FreeWord("".join(out))


def standard_relator(p: int, q: int) -> FreeWord:
    """V a V^-1 b^-1 for V = two_bridge_word(p, q)."""
    V = two_bridge_word(p, q)
    return V * FreeWord("a") * V.inverse() * FreeWord("B")


@dataclass(frozen=True)
class FamilyWords:
    """The presentation words of the n-th knot group."""

    n: int
    w: FreeWord
    relator: FreeWord
    s1: FreeWord
    s2: FreeWord
    longitude: FreeWord


def family_words(n: int) -> FamilyWords:
    """w, the relator a w^n b^-1 w^-n, Seifert generators, and longitude."""
    require_family_index(n)
    w = FreeWord("aB") ** n * FreeWord("Ab") ** n
    wn = w ** n
    relator = FreeWord("a") * wn * FreeWord("B") * wn.inverse()
    s1 = wn
    s2 = FreeWord("aB") ** n
    longitude = s1 * s2.inverse() * s1.inverse() * s2
    return FamilyWords(n=n, w=w, relator=relator, s1=s1, s2=s2, longitude=longitude)


# ---------------------------------------------------------------------------
# Numeric 2x2 matrices (plain complex, row tuples).

MAT_ID = ((1 + 0j, 0j), (0j, 1 + 0j))


def mat_mul(M, N):
    (a, b), (c, d) = M
    (e, f), (g, h) = N
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def mat_inv(M):
    (a, b), (c, d) = M
    det = a * d - b * c
    return ((d / det, -b / det), (-c / det, a / det))


def mat_trace(M):
    return M[0][0] + M[1][1]


def mat_det(M):
    return M[0][0] * M[1][1] - M[0][1] * M[1][0]


def mat_diff_norm(M, N) -> float:
    return max(abs(M[i][j] - N[i][j]) for i in range(2) for j in range(2))


@dataclass(frozen=True)
class NumericRep:
    """One numeric character: meridian eigenvalue mu and r = tr(a b^-1)."""

    n: int
    mu: complex
    r: complex
    A: tuple
    B: tuple

    def letter_matrices(self) -> dict:
        return {
            "a": self.A,
            "A": mat_inv(self.A),
            "b": self.B,
            "B": mat_inv(self.B),
        }


def numeric_rep(n: int, mu: complex, r: complex) -> NumericRep:
    """Matrices A = (mu 1; 0 1/mu), B = (mu 0; 2-r 1/mu)."""
    mu = complex(mu)
    r = complex(r)
    if mu == 0:
        raise ValueError("mu must be nonzero")
    A = ((mu, 1 + 0j), (0j, 1 / mu))
    B = ((mu, 0j), (2 - r, 1 / mu))
    for M in (A, B):
        if abs(mat_det(M) - 1) > 1e-12:
            raise ValueError("matrix determinant drifted away from 1")
    return NumericRep(n=n, mu=mu, r=r, A=A, B=B)


def word_eval(rep: NumericRep, word: FreeWord):
    """Left-to-right product of the letter matrices of the word."""
    table = rep.letter_matrices()
    out = MAT_ID
    for ch in FreeWord(word).letters:
        out = mat_mul(out, table[ch])
    return out


def relation_residual(rep: NumericRep, left: FreeWord, right: FreeWord) -> float:
    """Max entry difference between the two sides of a relation."""
    return mat_diff_norm(word_eval(rep, left), word_eval(rep, right))


def relator_residual(rep: NumericRep, relator: FreeWord) -> float:
    """Distance of the evaluated relator from the identity matrix."""
    return mat_diff_norm(word_eval(rep, relator), MAT_ID)


def mu_from_x(x: complex, branch: int = 1) -> complex:
    """An eigenvalue mu with mu + 1/mu = x: (x +- sqrt(x^2 - 4)) / 2.

    Both branches parameterize the same character; branch=-1 picks mu^-1.
    """
    x = complex(x)
    root = cmath.sqrt(x * x - 4)
    return (x + root) / 2 if branch >= 0 else (x - root) / 2


ROOT_DPS = 40  # decimal digits of every root approximation


def _horner(coeffs, z):
    """(p(z), p'(z)) for coefficients listed highest degree first."""
    p = dp = 0j
    for c in coeffs:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _aberth_seeds(coeffs: list):
    """Float approximations of the roots of an integer polynomial (highest
    degree first) by the Aberth-Ehrlich iteration, to start Durand-Kerner.

    The sweeps stop once every |p(z)| is within rounding error of the Horner
    sum of |a_k| |z|^k (Bini's test): floats cannot place the roots better.
    None if a seed is not finite.
    """
    deg = len(coeffs) - 1
    scale = 1 << max(abs(c).bit_length() for c in coeffs)
    fwd = [c / scale for c in coeffs]  # int true division: never overflows
    rev = fwd[::-1]
    abs_fwd, abs_rev = [abs(c) for c in fwd], [abs(c) for c in rev]
    lo = abs(coeffs[-1]) or 1
    radius = exp((log(lo) - log(abs(coeffs[0]))) / deg)
    zs = [radius * cmath.exp(2j * pi * (k + 0.25) / deg) for k in range(deg)]
    for _ in range(100):
        converged = True
        for i, z in enumerate(zs):
            if abs(z) <= 1:
                (den, num), bound = _horner(fwd, z), _horner(abs_fwd, abs(z))[0]
            else:  # p(z) = z^deg rev(w) with w = 1/z keeps the powers bounded
                w = 1 / z
                (den, dr), bound = _horner(rev, w), _horner(abs_rev, abs(w))[0]
                num = w * (deg * den - w * dr)
            # num / den = p'(z) / p(z)
            converged = converged and abs(den) <= 4 * deg * 2.0 ** -53 * bound.real
            denom = num - den * sum(1 / (z - y) for y in zs if y != z)
            if den != 0 and denom != 0:
                zs[i] = z - den / denom
        if converged:
            break
    if all(cmath.isfinite(z) for z in zs):
        return [mpmath.mpc(z) for z in zs]
    return None


def mp_roots(p: UniPoly) -> list:
    """All complex roots of p at the caller's mpmath precision: polyroots with
    maxsteps=200, extraprec=120 and its cleanup of tiny real and imaginary
    parts, started from float Aberth-Ehrlich seeds.  Non-convergence raises
    ExactArithError.
    """
    if p.degree < 1:
        raise ExactArithError("root isolation needs a nonconstant polynomial")
    coeffs = list(reversed(p.primitive().num))
    try:
        return mpmath.polyroots(
            coeffs, maxsteps=200, extraprec=120, roots_init=_aberth_seeds(coeffs)
        )
    except mpmath.mp.NoConvergence as exc:
        bits = max(abs(c).bit_length() for c in coeffs)
        raise ExactArithError(
            f"root approximation did not converge for a degree-{p.degree} "
            f"polynomial with {bits}-bit coefficients: {exc}"
        ) from exc


def sorted_complex(values) -> list:
    """Values as Python complex numbers, sorted by (real, imaginary) to 12 places."""
    out = [complex(z) for z in values]
    return sorted(out, key=lambda z: (round(z.real, 12), round(z.imag, 12)))


def complex_roots(p: UniPoly):
    """All complex roots of p, isolated well past 1e-12 and sorted by
    (real, imaginary) lexicographically: `mp_roots` at ROOT_DPS digits.
    """
    with mpmath.workdps(ROOT_DPS):
        return sorted_complex(mp_roots(p))
