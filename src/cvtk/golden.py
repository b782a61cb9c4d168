"""Frozen reference data for n = 2 and n = 3.

Integer primitive forms of the two irreducible components of the character
variety, the intersection r- and x-polynomials, the longitude trace minimal
polynomials, and the intersection-count budget (total, affine, ideal). The
verify command recomputes everything from scratch and compares against these;
pointing it at an edited JSON copy (`verify-paper --fixtures`, read by
load_fixtures) must make it fail, which is the negative control for the whole
comparison harness.  This module only reads that JSON: the tests write it
(tests/golden_json.py), from the fixtures below.
"""

from __future__ import annotations

import json

from . import Record
from .ratpoly import BiPoly, UniPoly

RX = ("r", "x")


class GoldenFixture(Record):
    n: int
    X0: BiPoly
    X1: BiPoly
    r_poly: UniPoly
    x_poly: UniPoly
    longitude_min_poly: UniPoly
    bezout: tuple  # (total, affine, ideal)

    def __post_init__(self):
        names = (self.r_poly.var, self.x_poly.var, self.longitude_min_poly.var,
                 *self.X0.vars, *self.X1.vars)
        if not all(isinstance(v, str) for v in names):
            raise ValueError(f"n = {self.n}: variable names {names} are not all strings")
        if [type(c) for c in self.bezout] != [int] * 3:
            raise ValueError(f"n = {self.n}: bezout {list(self.bezout)} is not three ints")

    @classmethod
    def from_json(cls, obj: dict) -> "GoldenFixture":
        n = obj["n"]
        return cls(
            n=n,
            X0=_x_factor_from_json(obj["X0"], n),
            X1=_x_factor_from_json(obj["X1"], n),
            r_poly=UniPoly.from_json(obj["r_poly"]),
            x_poly=UniPoly.from_json(obj["x_poly"]),
            longitude_min_poly=UniPoly.from_json(obj["longitude_min_poly"]),
            bezout=tuple(obj["bezout"]),
        )


def _x_factor_from_json(obj: dict, n) -> BiPoly:
    """BiPoly.from_json(obj) for a factor of the X model at n.  A BiPoly
    allocates its rows up to the largest exponent, so every exponent is
    first checked to be a pair of ints within the model's bidegree
    (2n^2 - 1, 2n), which bounds every factor of F."""
    top = (2 * n * n - 1, 2 * n)
    for term in obj["terms"]:
        exp = term["exp"]
        if not (type(exp) is list and len(exp) == 2
                and all(type(e) is int and 0 <= e <= t for e, t in zip(exp, top))):
            raise ValueError(f"n = {n}: exponent {exp!r} is not a pair of ints within "
                             f"the X model's bidegree {top}")
    return BiPoly.from_json(obj)


def _even_x_poly(*coeff_rows) -> BiPoly:
    """Rows are r-coefficient lists for x^0, x^2, x^4, ..."""
    terms = {}
    for k, row in enumerate(coeff_rows):
        for i, c in enumerate(row):
            if c:
                terms[(i, 2 * k)] = c
    return BiPoly(terms, RX)


_N2 = GoldenFixture(
    n=2,
    # -1 + 2r^2 + r^3 - r^2 x^2
    X0=_even_x_poly([-1, 0, 2, 1], [0, 0, -1]),
    # 1 + 4r - 4r^2 - r^3 + r^4 + (-2r + 3r^2 - r^3) x^2
    X1=_even_x_poly([1, 4, -4, -1, 1], [0, -2, 3, -1]),
    r_poly=UniPoly([2, -2, 1], "r"),
    x_poly=UniPoly([45, 0, -24, 0, 4], "x"),
    longitude_min_poly=UniPoly([772, -28, 1], "l"),
    bezout=(20, 4, 16),
)

_N3 = GoldenFixture(
    n=3,
    # 1 + r - 4r^2 - 2r^3 + 2r^4 + r^5 + (-1 + 2r^2 - r^4) x^2
    X0=_even_x_poly([1, 1, -4, -2, 2, 1], [-1, 0, 2, 0, -1]),
    X1=_even_x_poly(
        [1, 8, -40, -46, 110, 71, -113, -43, 54, 11, -12, -1, 1],
        [-8, -8, 60, 21, -130, -7, 118, -16, -46, 12, 6, -2],
        [4, 0, -19, 5, 32, -15, -22, 15, 4, -5, 1],
    ),
    r_poly=UniPoly([3, 0, 0, -2, 1], "r"),
    x_poly=UniPoly([6125, 0, -8400, 0, 5160, 0, -1424, 0, 144], "x"),
    longitude_min_poly=UniPoly([8647328, -385360, 15768, -212, 1], "l"),
    bezout=(84, 8, 76),
)


def default_fixtures() -> dict:
    return {2: _N2, 3: _N3}


def load_fixtures(path: str) -> dict:
    """Fixtures from a JSON file (the verify command's override hook).

    Each polynomial is read as the to_json methods write it: a coefficient
    is a string "num" or "num/den" of int literals, and an X0 or X1
    exponent a pair of ints within the X model's bidegree at the entry's n.
    A file that is not JSON, or whose fixtures lack a key, hold a value of
    the wrong shape or type, or sit under a key other than their "n", raises
    one ValueError naming the path and the fault.  Every check on the size
    of a polynomial comes before it is built.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        fixtures = {}
        for key, obj in json.loads(text).items():
            n = int(key)
            if obj["n"] != n:
                raise ValueError(f"entry {n} has n = {obj['n']!r}")
            fixtures[n] = GoldenFixture.from_json(obj)
    except KeyError as exc:
        raise ValueError(f"malformed fixture file {path}: missing key {exc}") from None
    except (AttributeError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed fixture file {path}: {exc}") from None
    return fixtures
