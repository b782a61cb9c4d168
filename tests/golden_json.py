"""The tests' writer of the fixture JSON that `cvtk verify-paper --fixtures`
reads: cvtk.golden.load_fixtures inverts it."""


def fixtures_to_json(fixtures: dict) -> dict:
    """{str(n): the JSON object of fixture n} for GoldenFixtures keyed by n."""
    return {
        str(n): {
            "n": fx.n,
            "X0": fx.X0.to_json(),
            "X1": fx.X1.to_json(),
            "r_poly": fx.r_poly.to_json(),
            "x_poly": fx.x_poly.to_json(),
            "longitude_min_poly": fx.longitude_min_poly.to_json(),
            "bezout": list(fx.bezout),
        }
        for n, fx in fixtures.items()
    }
