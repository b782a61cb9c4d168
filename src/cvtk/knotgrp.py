"""Free words in two meridian generators and numeric 2x2 verification.

The knot group of the n-th member of the family is

    < a, b : a w^n = w^n b >,   w = (a b^-1)^n (a^-1 b)^n,

and the same group has the standard two-bridge presentation attached to the
normal form (4n^2 - 1, 2n) (equivalently (4n^2 - 1, 4n^2 - 2n - 1), held by
`family_words`), whose conjugating word comes from the sign sequence
eps_i = (-1)^floor(i q / p).  Words here are plain freely reduced strings
over a, b and their inverses A, B, reduced once when built; the two
presentations are never compared letter by letter, only numerically.

The numeric side realizes the character at a point (r, x) through

    A = (mu 1; 0 mu^-1),   B = (mu 0; 2-r mu^-1),

mu + 1/mu = x and |mu| >= 1, so tr(A) = tr(B) = x and tr(A B^-1) = r.  Words
are multiplied out left to right, once per relator for residual and tolerance.

The points come from the constructor of `RootApproximations`: every root of
an integer polynomial by an Aberth-Ehrlich iteration on Gaussian fixed-point
integers from the caller's float seeds, each certified by an inclusion disc,
and the images of the given number-field elements at those roots with error
bounds.  The one polynomial cvtk root-finds is G_n, seeded from its
four-term form in z, r = z + 1/z (`_zform_seeds`).  The roots come in
conjugate pairs, so when the float seeds pair up, one root of each pair is
refined, bounded and evaluated, and its conjugate is mirrored; a failed
paired run is retried unpaired.  Precision is derived from the polynomial
and doubled only when a certificate or a bound fails, so no module needs a
multiprecision float library.
"""

from __future__ import annotations

import cmath
from functools import cached_property
from math import ceil, gcd, hypot, inf, isqrt, log2, pi, sqrt

from . import Record
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

    @classmethod
    def _of_reduced(cls, letters: str) -> "FreeWord":
        word = object.__new__(cls)
        word.letters = letters
        return word

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        # both words are reduced, so letters can cancel only at the junction
        a, b = self.letters, other.letters
        k, top = 0, min(len(a), len(b))
        while k < top and a[-1 - k] == _INV[b[k]]:
            k += 1
        return FreeWord._of_reduced(a[:len(a) - k] + b[k:])

    def inverse(self) -> "FreeWord":
        return FreeWord._of_reduced("".join(_INV[ch] for ch in reversed(self.letters)))

    def __pow__(self, k: int) -> "FreeWord":
        if k < 0:
            return self.inverse() ** (-k)
        return FreeWord(self.letters * k)

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


class FamilyWords(Record):
    """The presentation words of the n-th knot group."""

    n: int
    two_bridge: tuple  # the normal form (p, q) = (4n^2 - 1, 4n^2 - 2n - 1)
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
    return FamilyWords(n, (4 * n * n - 1, 4 * n * n - 2 * n - 1), w, relator, s1, s2, longitude)


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


class NumericRep(Record):
    """One numeric character: meridian eigenvalue mu and r = tr(a b^-1)."""

    n: int
    mu: complex
    r: complex
    A: tuple
    B: tuple

    @cached_property
    def letters(self) -> dict:
        return {
            "a": self.A,
            "A": mat_inv(self.A),
            "b": self.B,
            "B": mat_inv(self.B),
        }


def numeric_rep(n: int, r: complex, x: complex) -> NumericRep:
    """Matrices A = (mu 1; 0 1/mu), B = (mu 0; 2-r 1/mu), mu = mu_from_x(x).

    A non-finite r or mu (|x| past about 1e154) is the caller's ValueError; a
    determinant off 1 by more than 1e-12, or NaN, is an internal ExactArithError.
    """
    r, mu = complex(r), mu_from_x(x)
    if not (cmath.isfinite(r) and cmath.isfinite(mu)):
        raise ValueError(f"r and x must be finite, and x small enough for a finite mu: {r}, {x}")
    A = ((mu, 1 + 0j), (0j, 1 / mu))
    B = ((mu, 0j), (2 - r, 1 / mu))
    for M in (A, B):
        if not abs(mat_det(M) - 1) <= 1e-12:
            raise ExactArithError("matrix determinant drifted away from 1")
    return NumericRep(n=n, mu=mu, r=r, A=A, B=B)


def word_eval(rep: NumericRep, word: FreeWord):
    """Left-to-right product of the letter matrices of the word."""
    table = rep.letters
    out = MAT_ID
    for ch in word.letters:
        out = mat_mul(out, table[ch])
    return out


def relation_residual(rep: NumericRep, left: FreeWord, right: FreeWord) -> float:
    """Max entry difference between the two sides of a relation."""
    return mat_diff_norm(word_eval(rep, left), word_eval(rep, right))


# Floor of the relator tolerance of `cvtk rep` and of verify-paper's numeric
# checks; a long word gets the larger rounding scale of relator_check.
RELATOR_TOL = 1e-9


def relator_check(rep: NumericRep, relator: FreeWord) -> tuple:
    """(residual, tolerance) from one left-to-right product of the relator: its
    distance from the identity, and the rounding it explains, at least RELATOR_TOL.

    Each letter of the left-to-right product rounds every entry of the new
    partial product by at most 2 (1 + sqrt 5) u P M, where u = 2**-53, P is
    the largest partial-product entry and M the largest letter entry: two
    complex products of error sqrt(5) u each (Brent, Percival and Zimmermann
    2007) and one addition.  Summed over the letters of the word, that is a
    first-order error scale for the evaluated word, which grows with the word
    length and with the entries the partial products reach, as an absolute
    tolerance cannot.
    """
    table = rep.letters
    letters = relator.letters
    lam = max((abs(x) for ch in set(letters) for row in table[ch] for x in row), default=0.0)
    out = MAT_ID
    top = 1.0
    for ch in letters:
        out = mat_mul(out, table[ch])
        (a, b), (c, d) = out
        top = max(top, abs(a), abs(b), abs(c), abs(d))
    scale = 2 * (1 + sqrt(5)) * len(letters) * 2.0 ** -53 * top * lam
    return mat_diff_norm(out, MAT_ID), max(RELATOR_TOL, scale)


def mu_from_x(x: complex) -> complex:
    """The eigenvalue mu of trace x = mu + 1/mu with |mu| >= 1: (x + s) / 2 for
    s = +-sqrt(x^2 - 4) with Re(conj(x) s) >= 0, so that x and s never cancel.
    The other eigenvalue, 1 / mu, parameterizes the same character.
    """
    x = complex(x)
    s = cmath.sqrt(x * x - 4)
    if (x.conjugate() * s).real < 0:
        s = -s
    return (x + s) / 2


# ---------------------------------------------------------------------------
# Certified root approximations on Gaussian fixed-point integers.

TARGET_BITS = 200  # fractional bits beyond the Horner bound of the polynomial
SWEEP_CAP = 200  # Aberth sweeps of one run, paired or unpaired, of RootApproximations
MAX_DOUBLINGS = 4  # precision doublings before giving up
CLEANUP_BITS = 135  # parts below 2^-135 are zero (polyroots' rule at 40 digits)
ROOT_RADIUS = 2.0 ** -(CLEANUP_BITS + 1)  # every inclusion radius is below this
VALUE_TOL = 1e-20  # every image is within VALUE_TOL * max(1, |v|)


def _zform_seeds(n: int) -> list:
    """Float approximations of the 2n - 2 roots of G_n, from its four-term
    form in z, r = z + 1/z:

        z^(2n-2) (z - 1) (z + 1)^3 G_n(r) = z^(4n) + 2n z^(2n+1) - 2n z^(2n-1) - 1.

    The roots of Q(z) = z^(2n-2) G_n(z + 1/z) are the points z_j and their
    reciprocals, so the Aberth-Ehrlich iteration on Q moves only the points,
    kept at |z| >= 1 (a point inside the unit circle is reflected to 1/z),
    and sums over the other points and every reciprocal.  With w = 1/z and
    F(z) = z^(2n) - z^(-2n) + 2n (z - 1/z), whose terms over z^(2n) are
    powers of w, Q'/Q = F'/F + 2n/z - 1/(z - 1) - 3/(z + 1).  Each point
    stops at Bini's test, once |F(z)| is within rounding error of the sum of
    the absolute values of its four terms, or after 100 sweeps.  The points
    start on |z| = 1.05, off the real axis and symmetric under conjugation,
    as the roots of G_n are.  r = z + 1/z at each point.
    """
    deg, m = 2 * n - 2, 2 * n
    zs = [1.05 * cmath.exp(2j * pi * (k + 0.5) / deg) for k in range(deg)]
    invs = [1 / z for z in zs]
    done = [False] * deg
    for _ in range(100):
        for i, z in enumerate(zs):
            if done[i]:
                continue
            w = invs[i]
            w2 = w * w
            wm1 = w ** (m - 1)
            wm = wm1 * w
            w2m = wm * wm
            # F(z) / z^(2n) and F'(z) / z^(2n), every power of w at most 1
            f = 1 - w2m + m * wm1 * (1 - w2)
            df = m * (w + w2m * w + wm * (1 + w2))
            bound = 1 + abs(w2m) + m * abs(wm1) * (1 + abs(w2))
            if abs(f) <= 4 * (2 * m) * 2.0 ** -53 * bound:  # 2m = 4n, the degree in z
                done[i] = True
                continue
            try:
                log_deriv = df / f + m * w - 1 / (z - 1) - 3 / (z + 1)
                s = sum([1 / (z - y) for y in zs[:i] + zs[i + 1:] + invs])
                z = z - 1 / (log_deriv - s)
                if abs(z) < 1:
                    z = 1 / z
            except ZeroDivisionError:
                continue
            zs[i], invs[i] = z, 1 / z
        if all(done):
            break
    return [z + v for z, v in zip(zs, invs)]


def _fixed(x: float, bits: int) -> int:
    """floor(x * 2^bits), exactly."""
    num, den = x.as_integer_ratio()
    return (num << bits) // den


def _rdiv(a: int, b: int) -> int:
    """a / b rounded to the nearest int, for b > 0."""
    return (2 * a + b) // (2 * b)


def _log2_abs(re: int, im: int) -> float:
    """log2 |re + i im| for Gaussian integers of any size; -inf at 0."""
    shift = max(abs(re).bit_length(), abs(im).bit_length()) - 64
    if shift > 0:
        re, im = re >> shift, im >> shift
    else:
        shift = 0
    mag = hypot(re, im)
    return log2(mag) + shift if mag else -inf


def _log2_sum(logs) -> float:
    """log2 of the sum of 2^l over l in logs."""
    logs = list(logs)
    top = max(logs, default=-inf)
    if top == -inf:
        return -inf
    return top + log2(sum(2.0 ** (v - top) for v in logs))


def _pow2(v: float) -> float:
    """2^v, rounded up to 2^-1000 below and to inf above 2^1000: every use is
    an upper bound."""
    return inf if v > 1000 else 2.0 ** max(v, -1000.0)


def _log2_rounding(deg: int, log2_z: float) -> float:
    """log2 of a bound on the error, in units, of fixed-point Horner at z:
    each floored product is off by under sqrt(2) units and is carried
    through the later products, so the error is below
    sqrt(2) (1 + |z| + ... + |z|^(deg-1)) <= sqrt(2) deg max(1, |z|)^deg."""
    return 0.5 + log2(max(deg, 1)) + deg * max(0.0, log2_z)


def _horner_fixed(cs, zr: int, zi: int, bits: int):
    """p(z) and p'(z) in units of 2^-bits, for z = (zr + i zi) 2^-bits and
    cs the coefficients (highest degree first) shifted left by bits."""
    pr = pi_ = dr = di = 0
    for c in cs:
        dr, di = ((dr * zr - di * zi) >> bits) + pr, ((dr * zi + di * zr) >> bits) + pi_
        pr, pi_ = ((pr * zr - pi_ * zi) >> bits) + c, (pr * zi + pi_ * zr) >> bits
    return pr, pi_, dr, di


def _value_fixed(cs, zr: int, zi: int, bits: int):
    """p(z) alone, as in `_horner_fixed`."""
    pr = pi_ = 0
    for c in cs:
        pr, pi_ = ((pr * zr - pi_ * zi) >> bits) + c, (pr * zi + pi_ * zr) >> bits
    return pr, pi_


def _complexes(points, bits: int) -> list:
    """Gaussian fixed-point integers as Python complexes, correctly rounded
    (int true division; an int 0 part gives 0.0, never -0.0)."""
    scale = 1 << bits
    return [complex(re / scale, im / scale) for re, im in points]


def _sqrt_fixed(re: int, im: int, bits: int):
    """The principal square root of (re + i im) 2^-bits, in the same units,
    with mpmath's conventions: a negative real number maps to +i sqrt(-re),
    and a nonreal one to sqrt((|v| + |re|) / 2) on the axis of re's sign."""
    if im == 0:
        if re >= 0:
            return isqrt(re << bits), 0
        return 0, isqrt(-re << bits)
    t = isqrt(re * re + im * im) + abs(re)  # |v| + |re|
    s = isqrt(t << (bits - 1))  # sqrt(t / 2)
    other = _rdiv(abs(im) << bits, 2 * s)  # |im| / (2 s)
    if re >= 0:
        return s, other if im > 0 else -other
    return other, s if im > 0 else -s


def _conjugate_pairs(seeds) -> tuple:
    """(i, j) for each seed z_i above the real axis and the seed z_j nearest
    conj(z_i), when every such match is mutual and closer than a quarter of
    the least distance between two seeds; then z_j lies below the axis, and
    no seed is in two pairs.  A seed nearest its own conjugate is on the real
    axis and stays free.  One match that fails means seeds too coarse to
    pair, and no pairs."""
    def nearest(w):
        return min(range(len(seeds)), key=lambda k: abs(seeds[k] - w))

    gap = min((abs(z - y) for i, z in enumerate(seeds) for y in seeds[:i]), default=inf)
    pairs = []
    for i, z in enumerate(seeds):
        j = nearest(z.conjugate())
        if z.imag <= 0 or j == i:
            continue
        if nearest(seeds[j].conjugate()) != i or 4 * abs(seeds[j] - z.conjugate()) >= gap:
            return ()
        pairs.append((i, j))
    return tuple(pairs)


def _mirrored(pairs, points) -> dict:
    """{mirror: representative} over the pairs whose points are exact
    conjugates: only those may share a bound or a value."""
    return {j: i for i, j in pairs if points[j] == (points[i][0], -points[i][1])}


class RootApproximations:
    """Certified approximations of every complex root of a squarefree
    polynomial, as Gaussian fixed-point integers (re + i im) 2^-bits, and the
    images there of field elements given as (num, den, sqrt) triples.

    The float seeds are the caller's, one per root (G_n passes
    `_zform_seeds`); a seed list of another length, or a seed that is not
    finite, is an ExactArithError.  Seeds only start the iteration, so they
    can cost time but never a wrong root.  The roots of an integer
    polynomial are closed under conjugation, so the seeds are paired first
    (`_conjugate_pairs`): `pairs` holds (representative, mirror) indices,
    and the seeds in no pair are free points.  The Aberth-Ehrlich iteration
    runs in ints over the representatives and the free points, Gauss-Seidel,
    and stops at each once |p(z)| is below the rounding bound of its Horner
    sum (Bini's test); each mirror moves with its representative as its
    exact conjugate (re, -im).  bits is derived from the polynomial: TARGET_BITS plus log2 of
    the Horner bound sum |a_k| R^k, R just above the largest seed, minus
    log2 |lc|.  Each root is certified by a Weierstrass inclusion disc
    D(z_i, d |p(z_i)| / |lc prod (z_i - z_j)|) (Braess-Hadeler; Neumaier,
    J. Comput. Appl. Math. 156, 2003), with the Horner rounding in |p(z_i)|:
    pairwise disjoint discs hold one root each.  |p(conj z)| = |p(z)|, so
    one bound on |p| serves both points of a pair that are exact conjugates
    (`_mirrored`); each radius keeps its own product of distances.  The radii
    must be below ROOT_RADIUS; then polyroots' clean-up rule zeroes the parts
    below 2^-CLEANUP_BITS and widens the radii by the move.

    A paired run whose discs fail, or that does not converge in SWEEP_CAP
    sweeps, drops its pairs and restarts every point from its seed at the
    same bits: the unpaired run, with every seed a free point, is the
    fallback for any wrong pairing, so pairing never adds a failure.  When
    unpaired discs fail, or an image is not within VALUE_TOL, bits doubles,
    up to MAX_DOUBLINGS times; past that, or past SWEEP_CAP sweeps of an
    unpaired run, ExactArithError.

    The constructor settles the roots, then each image in order (an image may
    refine the roots), and keeps the final `roots`, `images` and `fixed_images`.
    An element is evaluated once per representative and free point; each
    mirror takes the conjugate value (see `_fixed_images`).
    """

    def __init__(self, p: UniPoly, elements, seeds):
        if p.degree < 1:
            raise ExactArithError("root isolation needs a nonconstant polynomial")
        self.coeffs = list(reversed(p.primitive().num))
        if len(seeds) != p.degree:
            raise ExactArithError(
                f"{len(seeds)} root seeds given for a degree-{p.degree} polynomial"
            )
        if not all(cmath.isfinite(z) for z in seeds):
            raise ExactArithError(
                f"a root seed given for a degree-{p.degree} polynomial is not finite"
            )
        self._seeds = list(seeds)
        reach = 1.0625 * max(abs(z) for z in self._seeds) + 2.0 ** -20
        horner_bound = _log2_sum(
            log2(abs(c)) + k * log2(reach) for k, c in enumerate(reversed(self.coeffs)) if c
        )
        self.bits = TARGET_BITS + max(0, ceil(horner_bound - log2(abs(self.coeffs[0]))))
        self._doublings = 0
        self._start(_conjugate_pairs(self._seeds))
        self._settle()
        self.fixed_images = tuple(self._fixed_images(*element) for element in elements)
        self.images = tuple(tuple(_complexes(pts, bits)) for bits, pts in self.fixed_images)
        self.roots = tuple(_complexes(self.points, self.bits))

    def _start(self, pairs: tuple) -> None:
        """Every point at its seed, each mirror at the conjugate of its
        representative's, and a fresh count of sweeps."""
        self.pairs = pairs
        self.points = [(_fixed(z.real, self.bits), _fixed(z.imag, self.bits)) for z in self._seeds]
        for i, j in pairs:
            self.points[j] = (self.points[i][0], -self.points[i][1])
        self._sweeps = 0

    def _failure(self, why: str) -> ExactArithError:
        bits = max(abs(c).bit_length() for c in self.coeffs)
        return ExactArithError(
            f"root approximation did not converge for a degree-{len(self.coeffs) - 1} "
            f"polynomial with {bits}-bit coefficients: {why}"
        )

    def _double(self, why: str) -> None:
        if self._doublings == MAX_DOUBLINGS:
            raise self._failure(f"{why} at {self.bits} bits")
        self._doublings += 1
        b = self.bits
        self.points = [(re << b, im << b) for re, im in self.points]
        self.bits = 2 * b

    def _settle(self) -> None:
        """Sweep to the rounding floor, then certify; retry a failed paired
        run unpaired, and double bits until the certificate holds."""
        while True:
            self._sweep()
            why = self._certify()
            if why is None:
                return
            if self.pairs:
                self._start(())
            else:
                self._double(why)

    def _sweep(self) -> None:
        """Gauss-Seidel Aberth sweeps at self.bits over the representatives
        and free points until each is at its rounding floor or its step is at
        most one unit; each mirror moves with its representative."""
        bits, pts, deg = self.bits, self.points, len(self.coeffs) - 1
        scale = 1 << bits
        cs = [c << bits for c in self.coeffs]
        mirror = dict(self.pairs)
        mirrors = set(mirror.values())
        done = {i: False for i in range(deg) if i not in mirrors}
        while not all(done.values()):
            if self._sweeps >= SWEEP_CAP:
                if self.pairs:  # retried unpaired, from the seeds
                    self._start(())
                    return self._sweep()
                raise self._failure(f"no convergence in {SWEEP_CAP} sweeps")
            self._sweeps += 1
            zf = _complexes(pts, bits)
            for i in done:
                if done[i]:
                    continue
                zr, zi = pts[i]
                pr, pi_, dr, di = _horner_fixed(cs, zr, zi, bits)
                if _log2_abs(pr, pi_) <= _log2_rounding(deg, log2(abs(zf[i]) or 1.0)):
                    done[i] = True
                    continue
                dd = dr * dr + di * di
                if dd == 0:
                    continue
                # Newton step N = p / p', then Aberth's N / (1 - N S) as
                # N + N h, h = N S / (1 - N S) in floats: its rounding is
                # second order in N.
                nr = _rdiv((pr * dr + pi_ * di) << bits, dd)
                ni = _rdiv((pi_ * dr - pr * di) << bits, dd)
                z = zf[i]
                s = sum(1 / (z - y) for y in zf if y != z)
                try:
                    q = complex(nr / scale, ni / scale) * s
                    h = q / (1 - q)
                except (OverflowError, ZeroDivisionError):
                    h = 0j
                if not cmath.isfinite(h):
                    h = 0j
                hr, hi = _fixed(h.real, 53), _fixed(h.imag, 53)
                wr = nr + ((nr * hr - ni * hi) >> 53)
                wi = ni + ((nr * hi + ni * hr) >> 53)
                pts[i] = (zr - wr, zi - wi)
                zf[i] = complex(pts[i][0] / scale, pts[i][1] / scale)
                if i in mirror:
                    pts[mirror[i]] = (pts[i][0], -pts[i][1])
                    zf[mirror[i]] = zf[i].conjugate()
                done[i] = abs(wr) <= 1 and abs(wi) <= 1

    def _certify(self):
        """None once the inclusion discs are disjoint with radii below
        ROOT_RADIUS (and the clean-up is applied), else what failed."""
        bits, pts, coeffs = self.bits, self.points, self.coeffs
        deg, scale = len(coeffs) - 1, 1 << bits
        cs = [c << bits for c in coeffs]
        rep = _mirrored(self.pairs, pts)
        dist = [[0.0] * deg for _ in range(deg)]
        for i in range(deg):
            for j in range(i):
                d = hypot((pts[i][0] - pts[j][0]) / scale, (pts[i][1] - pts[j][1]) / scale)
                dist[i][j] = dist[j][i] = d
        log2_p = {}  # log2 of the bound on |p|, once per representative
        radii = []
        for i in range(deg):
            others = [dist[i][j] for j in range(deg) if j != i]
            if min(others, default=1.0) == 0.0:
                radii.append(inf)
                continue
            k = rep.get(i, i)
            if k not in log2_p:
                zr, zi = pts[k]
                log2_z = log2(hypot(zr / scale, zi / scale) or 1.0)
                # |p(z_k)| <= |computed| + rounding, then the Weierstrass
                # radius; the factor 2 covers the float rounding of the radius.
                log2_p[k] = _log2_sum((_log2_abs(*_value_fixed(cs, zr, zi, bits)),
                                       _log2_rounding(deg, log2_z))) - bits
            log2_den = log2(abs(coeffs[0])) + sum(log2(d) for d in others)
            radii.append(_pow2(1 + log2(deg) + log2_p[k] - log2_den))
        for i in range(deg):
            for j in range(i):
                if dist[i][j] * (1 - 2.0 ** -40) <= radii[i] + radii[j]:
                    return "inclusion discs overlap"
        if max(radii) >= ROOT_RADIUS:
            return f"inclusion radius {max(radii):.1e} not below {ROOT_RADIUS:.1e}"
        tol = 1 << (bits - CLEANUP_BITS)
        for i, (zr, zi) in enumerate(pts):
            if zr * zr + zi * zi < tol * tol:
                clean = (0, 0)
            elif abs(zi) < tol:
                clean = (zr, 0)
            elif abs(zr) < tol:
                clean = (0, zi)
            else:
                continue
            radii[i] += hypot((zr - clean[0]) / scale, (zi - clean[1]) / scale)
            pts[i] = clean
        self.radii = radii
        return None

    def _fixed_images(self, num, den: int, sqrt: bool):
        """(bits, points): the image of (sum num[k] r^k) / den at every root,
        or its principal square root, within VALUE_TOL max(1, |v|), as
        Gaussian integers in units of 2^-bits.  The bound adds the Horner
        rounding and the disc radius rho times sum k |num[k]| (|z| + rho)^(k-1)
        over den; a square root divides it by sqrt|v|, and bounds the pair
        +-sqrt(v), so the sign of a root near the branch cut is not certified.
        A mirror takes the conjugate of its representative's value, before
        any square root, and the bound of the pair's larger radius, which |z|
        shares; each then takes its own principal root, since that branch is
        not symmetric under conjugation on the negative real axis.  bits
        doubles until the bound holds."""
        deriv = [(k, log2(k * abs(c))) for k, c in enumerate(num) if k and c]
        log2_den = log2(den)
        while True:
            bits = self.bits
            cs = [c << bits for c in reversed(num)]
            rep = _mirrored(self.pairs, self.points)
            mirror = {i: j for j, i in rep.items()}
            values, errs = {}, {}
            for i, (zr, zi) in enumerate(self.points):
                if i in rep:
                    continue
                rho = max(self.radii[i], self.radii[mirror.get(i, i)])
                z_abs = hypot(zr / (1 << bits), zi / (1 << bits))
                log2_reach = log2(z_abs + rho)
                err = (_pow2(log2(rho) + _log2_sum(l + (k - 1) * log2_reach for k, l in deriv)
                             - log2_den)
                       + _pow2(_log2_rounding(len(num) - 1, log2(z_abs or 1.0)) - log2_den - bits)
                       + _pow2(1 - bits))
                vr, vi = _value_fixed(cs, zr, zi, bits)
                values[i], errs[i] = (_rdiv(vr, den), _rdiv(vi, den)), err
                if i in mirror:
                    values[mirror[i]], errs[mirror[i]] = (values[i][0], -values[i][1]), err
            out = []
            for i in range(len(self.points)):
                (vr, vi), err = values[i], errs[i]
                log2_v = _log2_abs(vr, vi) - bits
                if sqrt:
                    err = (err + _pow2(2 - bits)) * _pow2(-log2_v / 2) + _pow2(2 - bits)
                    vr, vi = _sqrt_fixed(vr, vi, bits)
                    log2_v /= 2
                if not log2(err) <= log2(VALUE_TOL) + max(0.0, log2_v):
                    break
                out.append((vr, vi))
            else:
                return bits, tuple(out)
            self._double(f"an image error bound {err:.1e} above {VALUE_TOL:.0e}")
            self._settle()


def sorted_complex(values) -> list:
    """Values as Python complex numbers, sorted by (real, imaginary) to 12 places."""
    out = [complex(z) for z in values]
    return sorted(out, key=lambda z: (round(z.real, 12), round(z.imag, 12)))

