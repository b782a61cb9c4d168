"""Frozen reference data for n = 2 and n = 3.

Integer primitive forms of the two irreducible components of the character
variety, the intersection r- and x-polynomials, the longitude trace minimal
polynomials, and the intersection-count budget (total, affine, ideal). The
verify command recomputes everything from scratch and compares against these;
pointing it at an edited JSON copy must make it fail, which is the negative
control for the whole comparison harness.
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

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "X0": self.X0.to_json(),
            "X1": self.X1.to_json(),
            "r_poly": self.r_poly.to_json(),
            "x_poly": self.x_poly.to_json(),
            "longitude_min_poly": self.longitude_min_poly.to_json(),
            "bezout": list(self.bezout),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GoldenFixture":
        return cls(
            n=obj["n"],
            X0=BiPoly.from_json(obj["X0"]),
            X1=BiPoly.from_json(obj["X1"]),
            r_poly=UniPoly.from_json(obj["r_poly"]),
            x_poly=UniPoly.from_json(obj["x_poly"]),
            longitude_min_poly=UniPoly.from_json(obj["longitude_min_poly"]),
            bezout=tuple(obj["bezout"]),
        )


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

    A file that is not JSON, or whose fixtures lack a key, hold a value of
    the wrong shape or type, or sit under a key other than their "n", raises
    one ValueError naming the path and the fault.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        fixtures = {int(k): GoldenFixture.from_json(v) for k, v in json.loads(text).items()}
        for k, fx in fixtures.items():
            if fx.n != k:
                raise ValueError(f"entry {k} has n = {fx.n!r}")
    except KeyError as exc:
        raise ValueError(f"malformed fixture file {path}: missing key {exc}") from None
    except (AttributeError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed fixture file {path}: {exc}") from None
    return fixtures
