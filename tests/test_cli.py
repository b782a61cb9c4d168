"""End-to-end command tests, including the fixture negative control.

The negative control is the guard on the whole verification harness: editing
any single frozen coefficient, of any field type, must flip the verify table
to exit 1 while naming a failing check.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cvtk.cli import (
    MAX_CHECK_N,
    MAX_J,
    MAX_N,
    MAX_VARIETY_N,
    MAX_WORD,
    SUBCOMMANDS,
    _parse_fast,
    build_parser,
    canonical_json,
    main,
)
from cvtk import cli
from cvtk.golden import GoldenFixture, default_fixtures, load_fixtures
from golden_json import fixtures_to_json


def _fixtures_json():
    """The frozen fixtures as the JSON object that `--fixtures` reads."""
    return fixtures_to_json(default_fixtures())


def _fail_names(out):
    return {
        line.split()[1] for line in out.splitlines() if line.startswith("FAIL")
    }


def _run_with_fixtures(tmp_path, capsys, mutate):
    obj = _fixtures_json()
    mutate(obj)
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code = main(["verify-paper", "--fixtures", str(path)])
    return code, capsys.readouterr().out


# Each edit of one frozen coefficient, with exactly the rows that FAIL on it.
PERTURBATIONS = (
    ("component", lambda o: o["2"]["X0"]["terms"][0].update(coeff="99"),
     {"x-variety-n2", "eliminants-n2"}),
    ("x-poly", lambda o: o["2"]["x_poly"]["coeffs"].__setitem__(0, "44"),
     {"meridian-n2-exact", "eliminants-n2"}),
    ("r-poly", lambda o: o["2"]["r_poly"]["coeffs"].__setitem__(1, "-3"), {"r-poly-n2"}),
    ("longitude", lambda o: o["2"]["longitude_min_poly"]["coeffs"].__setitem__(0, "771"),
     {"longitude-n2-exact"}),
    ("bezout", lambda o: o["2"]["bezout"].__setitem__(0, 21), {"bezout-n2"}),
    ("longitude-n3", lambda o: o["3"]["longitude_min_poly"]["coeffs"].__setitem__(1, "-385361"),
     {"longitude-n3-exact", "longitude-numeric"}),
)


@pytest.mark.parametrize("label,mutate,expected", PERTURBATIONS, ids=[p[0] for p in PERTURBATIONS])
def test_negative_control(tmp_path, capsys, label, mutate, expected):
    code, out = _run_with_fixtures(tmp_path, capsys, mutate)
    assert code == 1
    assert _fail_names(out) == expected


def test_written_fixtures_load_back_field_for_field(tmp_path):
    """The tests' writer and load_fixtures are inverses on the frozen data,
    so the negative control edits exactly what verify-paper reads."""
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps(_fixtures_json()), encoding="utf-8")
    loaded, frozen = load_fixtures(str(path)), default_fixtures()
    assert sorted(loaded) == sorted(frozen) == [2, 3]
    for n, fx in frozen.items():
        for field in GoldenFixture._fields:
            got, want = getattr(loaded[n], field), getattr(fx, field)
            assert type(got) is type(want) and got == want, (n, field)
        assert loaded[n].X0.vars == fx.X0.vars and loaded[n].r_poly.var == fx.r_poly.var


def test_verify_paper_passes(capsys):
    assert main(["verify-paper"]) == 0
    out = capsys.readouterr().out
    assert "28/28 checks passed" in out
    assert "FAIL" not in out


def test_verify_paper_property_path(capsys):
    assert main(["verify-paper", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "5/5 checks passed" in out
    assert "slope-verdict" in out


def test_intersect_json_round_trip(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["intersect", "--n", "2", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == canonical_json(json.loads(out)) + "\n"
    assert path.read_text(encoding="utf-8") == out
    obj = json.loads(out)
    assert obj["slope"]["detected_slope"] == 0
    approx = obj["loci"][0]["approx"]
    assert len(approx["modulus_roots"]) == 2
    assert len(approx["x_roots"]) == 4
    assert len(approx["longitude_roots"]) == 2


def test_intersect_empty_json_path_is_an_error(capsys):
    """An empty --json path names no file: the open fails and the command
    exits 2 instead of skipping the write."""
    assert main(["intersect", "--n", "2", "--json", ""]) == 2
    assert "error: " in capsys.readouterr().err


def test_unwritable_json_path_exits_two_at_once(tmp_path, capsys):
    """intersect opens --json PATH before it builds the report, so a PATH in
    a missing directory is a usage error with nothing printed."""
    assert main(["intersect", "--n", "24", "--json", str(tmp_path / "missing" / "x.json")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_verification_failure_leaves_json_path_empty(monkeypatch, tmp_path, capsys):
    """PATH is opened before the report is built, so a failed certificate
    leaves it empty."""
    from cvtk import intersect

    monkeypatch.setattr(intersect, "square_mod_two", lambda G, f: False)
    path = tmp_path / "report.json"
    assert main(["intersect", "--n", "3", "--json", str(path)]) == 1
    assert capsys.readouterr().out == ""
    assert path.read_text(encoding="utf-8") == ""


def test_usage_errors_exit_two(capsys):
    assert main(["intersect", "--n", "1"]) == 2
    assert main(["cheb", "--kind", "f", "--j", "-1"]) == 2
    assert main(["variety", "--n", "2", "--model", "X", "--split"]) == 2
    assert main(["rep", "--n", "2", "--root", "9"]) == 2
    assert main(["verify-paper", "--fixtures", "/nonexistent/fixtures.json"]) == 2
    capsys.readouterr()
    for argv in (
        ["no-such-command"],
        ["verify-paper", "--n", "3", "--fixtures", "/nonexistent/fixtures.json"],
        ["rep", "--n", "2", "--locus", "5"],
        ["rep", "--n", "2", "--locus", "0"],  # rep has one locus and no --locus
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
    capsys.readouterr()
    # Each integer argument above its ceiling; argparse rejects it before any
    # work starts, so no huge value runs.
    cases = [
        (["cheb", "--kind", "f", "--j", str(MAX_J + 1)], "--j", MAX_J),
        (["cheb", "--kind", "G", "--j", "10000000"], "--j", MAX_J),
        (["variety", "--n", str(MAX_VARIETY_N + 1), "--model", "D"], "--n", MAX_VARIETY_N),
        (["word", "--p", str(MAX_WORD + 1), "--q", "3"], "--p", MAX_WORD),
        (["word", "--p", "15", "--q", str(MAX_WORD + 1)], "--q", MAX_WORD),
        (["verify-paper", "--n", str(MAX_CHECK_N + 1)], "--n", MAX_CHECK_N),
    ]
    for command in ("intersect", "detect", "rep", "alexander", "slopes"):
        cases.append(([command, "--n", str(MAX_N + 1)], "--n", MAX_N))
    for argv, option, ceiling in cases:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        value = argv[argv.index(option) + 1]
        message = capsys.readouterr().err
        assert f"argument {option}: {value} is above the ceiling {ceiling}" in message


@pytest.mark.parametrize("fault", ["coeffs-not-a-list", "missing-key"])
def test_malformed_fixture_file_exits_two(tmp_path, capsys, fault):
    obj = _fixtures_json()
    if fault == "coeffs-not-a-list":
        obj["2"]["r_poly"] = {"coeffs": 5}
    else:
        del obj["3"]["bezout"]
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["verify-paper", "--fixtures", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: malformed fixture file {path}: ")
    assert err.count("\n") == 1


ILL_TYPED_FIXTURES = (
    ("key-differs-from-n", lambda o: o["2"].update(n=7), "entry 2 has n = 7"),
    ("n-not-an-int", lambda o: o["2"].update(n=2.5), "entry 2 has n = 2.5"),
    ("zero-denominator", lambda o: o["2"]["r_poly"]["coeffs"].__setitem__(0, "1/0"), "Fraction(1, 0)"),
    ("var-not-a-string", lambda o: o["2"]["r_poly"].update(var=5), "variable names"),
    ("vars-not-strings", lambda o: o["2"]["X0"].update(vars=[1, 2]), "variable names"),
    ("bezout-too-short", lambda o: o["3"]["bezout"].pop(), "is not three ints"),
    ("bezout-not-ints", lambda o: o["3"]["bezout"].__setitem__(0, "84"), "is not three ints"),
    # X0 and X1 exponents: a pair of ints within the X model's bidegree
    # (2n^2 - 1, 2n), checked before a row is built
    ("exponent-negative", lambda o: _set_exp(o, "2", "X0", [-1, 0]), "exponent [-1, 0]"),
    ("exponent-float", lambda o: _set_exp(o, "2", "X0", [1.5, 0]), "exponent [1.5, 0]"),
    ("exponent-string", lambda o: _set_exp(o, "2", "X1", ["1", 0]), "exponent ['1', 0]"),
    ("exponent-bool", lambda o: _set_exp(o, "2", "X0", [True, 0]), "exponent [True, 0]"),
    ("exponent-triple", lambda o: _set_exp(o, "3", "X0", [1, 0, 0]), "exponent [1, 0, 0]"),
    ("exponent-above-r-degree", lambda o: _set_exp(o, "2", "X0", [8, 0]),
     "exponent [8, 0] is not a pair of ints within the X model's bidegree (7, 4)"),
    ("exponent-above-x-degree", lambda o: _set_exp(o, "3", "X1", [0, 7]), "bidegree (17, 6)"),
    ("exponent-huge", lambda o: _set_exp(o, "2", "X0", [2000, 0]), "exponent [2000, 0]"),
    # coefficients: the strings that frac_str writes, "num" or "num/den"
    ("coeff-exponent-notation",
     lambda o: o["2"]["X0"]["terms"][0].update(coeff="1e1000000"), "invalid literal for int()"),
    ("coeff-not-a-string", lambda o: o["2"]["X0"]["terms"][0].update(coeff=5), "coefficient 5 is not a string"),
    ("coeff-list-entry-not-a-string", lambda o: o["3"]["x_poly"]["coeffs"].__setitem__(0, 6125),
     "coefficient 6125 is not a string"),
    ("coeff-two-slashes", lambda o: o["2"]["r_poly"]["coeffs"].__setitem__(0, "1/2/3"),
     "invalid literal for int() with base 10: '2/3'"),
    ("coeff-decimal", lambda o: o["2"]["longitude_min_poly"]["coeffs"].__setitem__(0, "772.0"),
     "invalid literal for int()"),
)


def _set_exp(obj, n, poly, exp):
    obj[n][poly]["terms"][0]["exp"] = exp


@pytest.mark.parametrize("label,mutate,fault", ILL_TYPED_FIXTURES,
                         ids=[c[0] for c in ILL_TYPED_FIXTURES])
def test_ill_typed_fixture_file_exits_two(tmp_path, capsys, label, mutate, fault):
    """A fixture under the wrong key, with a variable name that is not a
    string, a bezout that is not three ints, a zero denominator, an exponent
    out of the X model's bidegree or a coefficient that frac_str does not
    write is a usage error, not a failed paper check or an internal error,
    and it is found before any large allocation or parse."""
    obj = _fixtures_json()
    mutate(obj)
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    start = time.monotonic()
    assert main(["verify-paper", "--fixtures", str(path)]) == 2
    assert time.monotonic() - start < 5.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: malformed fixture file {path}: ")
    assert fault in err and err.count("\n") == 1


def test_fixture_exponents_at_the_bound_load(tmp_path, capsys):
    """An exponent exactly at the X model's bidegree is within bounds: the
    file loads and the edited factor fails its paper checks, and a
    4,300-digit coefficient is read as the int it is."""
    code, out = _run_with_fixtures(tmp_path, capsys, lambda o: _set_exp(o, "3", "X1", [17, 6]))
    assert code == 1 and "x-variety-n3" in _fail_names(out)
    code, out = _run_with_fixtures(
        tmp_path, capsys, lambda o: o["2"]["X0"]["terms"][0].update(coeff="9" * 4300))
    assert code == 1 and "x-variety-n2" in _fail_names(out)


def test_rep_numeric_failure_is_internal(monkeypatch, capsys):
    """A determinant that drifts from 1, or is NaN, is an internal error,
    not a usage error; test_knotgrp.py covers the caller's ValueError."""
    from cvtk import knotgrp

    for det in (2, float("nan")):
        monkeypatch.setattr(knotgrp, "mat_det", lambda M: det)
        assert main(["rep", "--n", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("internal error: matrix determinant drifted away from 1")


def test_rep_checks_root_index_before_root_finding(monkeypatch, capsys):
    """An out-of-range --root is a usage error read off the degree 2n - 2
    of G_n: the command exits 2 before it builds the report, so before it
    root-finds the modulus.  An n out of the family still gets the
    family-index message first."""
    def no_report(n):
        raise AssertionError("rep built the report for a usage error")

    monkeypatch.setattr(cli, "build_intersection_report", no_report)
    for n, root, top in ((3, 4, 3), (3, -1, 3), (12, 22, 21), (128, 999, 253)):
        assert main(["rep", "--n", str(n), "--root", str(root)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: root index must be in [0, {top}]\n"
    assert main(["rep", "--n", "1", "--root", "0"]) == 2
    assert capsys.readouterr().err == "error: the knot family is indexed by integers n >= 2, got 1\n"


def test_one_root_approximation_per_locus(monkeypatch, capsys):
    """intersect and verify-paper root-find each locus modulus once, through
    `IntersectionLocus.points`, and nothing else: every `RootApproximations`
    that is built counts."""
    from cvtk import knotgrp
    from cvtk.intersect import build_intersection_report

    good = knotgrp.RootApproximations.__init__
    built = []

    def counted(self, p, *args):
        built.append(p)
        good(self, p, *args)

    monkeypatch.setattr(knotgrp.RootApproximations, "__init__", counted)
    assert main(["intersect", "--n", "5"]) == 0
    assert built == [build_intersection_report(5).locus.modulus]
    built.clear()
    assert main(["verify-paper"]) == 0
    capsys.readouterr()
    assert [p.degree for p in built] == [2, 4]  # the n = 2 and n = 3 loci


def test_intersect_seeds_from_the_z_form(monkeypatch, capsys):
    """intersect seeds G_n from its z-form, once for its one locus."""
    from cvtk import intersect

    good = intersect._zform_seeds
    calls = []
    monkeypatch.setattr(intersect, "_zform_seeds", lambda n: calls.append(n) or good(n))
    assert main(["intersect", "--n", "5"]) == 0
    capsys.readouterr()
    assert calls == [5]


def test_wrong_seed_count_exits_one(monkeypatch, capsys):
    """A seed list whose length is not the degree of the modulus, or with a
    seed that is not finite, is an internal error, not a usage error."""
    from cvtk import intersect

    for seeds, why in (
        (lambda n: [1j] * (2 * n - 3), "3 root seeds given for a degree-4 polynomial"),
        (lambda n: [1j, -1j, 1 + 1j, complex(float("nan"), 1)],
         "a root seed given for a degree-4 polynomial is not finite"),
    ):
        monkeypatch.setattr(intersect, "_zform_seeds", seeds)
        assert main(["intersect", "--n", "3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"internal error: {why}\n"


def test_internal_error_exits_one(monkeypatch, capsys):
    from cvtk import numfield

    good = numfield.squarefree_part
    monkeypatch.setattr(numfield, "squarefree_part", lambda p: good(p) + 1)
    assert main(["intersect", "--n", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal error: ")
    assert "does not vanish" in err


def test_root_nonconvergence_exits_one(monkeypatch, capsys):
    from cvtk import knotgrp

    monkeypatch.setattr(knotgrp, "SWEEP_CAP", 0)
    assert main(["intersect", "--n", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal error: root approximation did not converge")
    assert "degree-" in err and "-bit coefficients" in err


def test_overlapping_inclusion_discs_exit_one(monkeypatch, capsys):
    """A finder that leaves two approximations on one root after every sweep
    gets overlapping inclusion discs at every precision, and exits 1."""
    from cvtk import knotgrp

    good = knotgrp.RootApproximations._sweep

    def sweep_onto_one_root(self):
        good(self)
        self.points[1] = self.points[0]

    monkeypatch.setattr(knotgrp.RootApproximations, "_sweep", sweep_onto_one_root)
    assert main(["intersect", "--n", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal error: root approximation did not converge")
    assert "inclusion discs overlap" in err


@pytest.mark.parametrize("mispair, retried", [
    # the second representative mirrored onto the first, which is not its
    # conjugate: the first pair's mirror never moves, and its disc fails
    (lambda pairs: (pairs[0], (pairs[1][0], pairs[0][0]), *pairs[2:]), True),
    # a seed above the axis mirrored onto another one above it: the sweeps
    # move the two free seeds onto the roots left over
    (lambda pairs: ((pairs[0][0], pairs[1][0]), *pairs[2:]), False),
], ids=["chain", "upper-onto-upper"])
def test_mispaired_seeds_print_the_certified_roots(monkeypatch, capsys, mispair, retried):
    """Conjugate pairs that mirror a seed onto one that is not its conjugate
    leave the stdout of intersect byte-identical: the last certificate holds,
    unpaired where the paired one failed."""
    from cvtk import knotgrp

    assert main(["intersect", "--n", "5"]) == 0
    expected = capsys.readouterr().out
    good_pairs, good_certify = knotgrp._conjugate_pairs, knotgrp.RootApproximations._certify
    certified = []

    def certify(self):
        why = good_certify(self)
        certified.append((self.pairs, why))
        return why

    monkeypatch.setattr(knotgrp, "_conjugate_pairs", lambda seeds: mispair(good_pairs(seeds)))
    monkeypatch.setattr(knotgrp.RootApproximations, "_certify", certify)
    assert main(["intersect", "--n", "5"]) == 0
    assert capsys.readouterr().out == expected
    assert certified[0][0] and certified[-1][1] is None
    assert (certified[-1][0] == ()) == retried
    assert [why is None for _, why in certified] == [False] * retried + [True]


def _root_finder_approx(locus):
    """The approx block as root-finding on each minimal polynomial would give it."""
    from cvtk.cli import complex_str
    from roots import complex_roots

    def strs(poly):
        return [complex_str(z) for z in complex_roots(poly)]

    return {
        "modulus_roots": strs(locus.modulus),
        "x_roots": strs(locus.x_min_poly),
        "longitude_roots": strs(locus.longitude_min_poly),
    }


@pytest.mark.parametrize("n", range(2, 11))
def test_approximations_match_root_finding_on_min_polys(capsys, n):
    from cvtk.intersect import build_intersection_report

    assert main(["intersect", "--n", str(n)]) == 0
    loci = json.loads(capsys.readouterr().out)["loci"]
    report = build_intersection_report(n)
    assert [obj["approx"] for obj in loci] == [_root_finder_approx(report.locus)]


def test_wrong_longitude_count_exits_one(monkeypatch, capsys):
    """One longitude image at every point beside the true degree-4 minimal
    polynomial."""
    from cvtk import intersect

    points = intersect.IntersectionLocus.points.func
    monkeypatch.setattr(
        intersect.IntersectionLocus,
        "points",
        property(lambda locus: tuple((r0, x0, 1j) for r0, x0, _ in points(locus))),
    )
    assert main(["intersect", "--n", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal error: 1 distinct approximations for 4 roots")


def test_d_split_invariant_failure_exits_one(monkeypatch, capsys):
    from cvtk import variety

    good = variety.d_variety_poly
    monkeypatch.setattr(variety, "d_variety_poly", lambda n: good(n) + 1)
    assert main(["variety", "--n", "2", "--model", "D", "--split"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failure: hard invariant violated")


def test_meridian_without_bad_prime_two_is_a_verification_failure(monkeypatch, capsys):
    """Negative control: a non-integral meridian verdict whose complete set of
    bad primes leaves out 2 contradicts the mod-2 argument, so intersect
    exits 1 naming it, and verify-paper's meridian-nonintegral line fails."""
    from cvtk import intersect
    from cvtk.numfield import IntegralityVerdict

    monkeypatch.setattr(intersect, "integrality_verdict",
                        lambda poly: IntegralityVerdict(False, 3, (3,)))
    assert main(["intersect", "--n", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("verification failure: meridian polynomial ")
    assert err.rstrip().endswith(
        "at n = 3 is non-integral but 2 does not divide any coefficient denominator"
    )
    assert main(["verify-paper"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert [line.split()[1] for line in failed] == ["meridian-nonintegral"]
    assert "does not divide any coefficient denominator" in failed[0]


# sha256 of the standard output for each argv. The intersect and detect pins
# were recorded before the report records became frozen, except detect --n 9
# and detect --n 19 (the largest n of the number-field benchmark), recorded
# before number-field elements stored integers over one denominator; the rest
# were recorded before UniPoly did. The n = 9 meridian polynomial is the one
# family input whose factoring needs a Hensel lift; a non-square witness
# proves it irreducible, so test_factor.py's test_n9_meridian_polynomial_lifts
# factors it directly. The two rep pins are re-recorded: rep now prints each
# relator residual as a verdict against RELATOR_TOL ("residual < 1e-09: yes")
# in place of four digits of float rounding noise, which moved with any
# reordering of float operations. The rep --n 8 and --n 12 pins were recorded
# while rep root-found the modulus for x alone, before it read its points off
# the intersection report. The cheb --j 60 and variety --n 10 pins were
# recorded while every product ran the row loop: G_60's products and the
# dense X-model products at n = 8 take the packed product, and n = 10 is the
# first X model whose dense products of unbalanced bit lengths stay on the
# row loop, so both sides of ratpoly._conv's gate are pinned byte for byte.
# The rep --n 24 pin was recorded while each relator was multiplied out twice,
# once for its residual and once for its tolerance; it is the first rep pin
# whose tolerances (1.22107e-09 and 2.20679e-09) are above the 1e-9 floor.
# The text form detect --n 5, which prints every SlopeVerdict field, and
# verify-paper --n 16, whose slope-verdict and meridian-nonintegral rows read
# the report's verdicts, were recorded before the verdict fallback went.
# The printed output must stay byte-identical under refactors.
OUTPUT_SHA256 = {
    "intersect --n 2": "84c4c0cdd549437ddc247d4401e1679db4a0910ac88b08b54677c2bf3c993403",
    "intersect --n 3": "e0b7681188a2da39e9d421d3d323ba3ce5802585ada5fa81051115ca2537a1c2",
    "intersect --n 4": "8b25241147535cbb8b8d9ca1efb06cde14423eb2fcc116d7d203c5cd5d250333",
    "intersect --n 5": "5f72db167a494fb361f3c88c5944a572f5e57acb39f3110d19d8ac4f555457ca",
    "intersect --n 6": "aaa37376cba7e8eff529b952b3ec14204322af7690c4168e1f26c8c44685559a",
    "intersect --n 12": "2eeda1067bcb7e0091c9a4d8142d184399923e0f2ac6b97c64774b240baf2014",
    "intersect --n 24": "2123f7bfcf24f8f63f736930a371324763b39e1314afcc5a421cfbaf999564ab",
    "detect --n 2 --json": "beb8244ce3e9e7ced537d6124198bee0578890959e1ccab6b2241ce56d6cae05",
    "detect --n 3 --json": "448cc9b5fb7f55053e144c84412bea65ed6ca5528c21a29dd69d30ac7909a112",
    "detect --n 4 --json": "278f3c9e2d95e16415073877410fe2d543e810e811f32174dd529fa74537d271",
    "detect --n 5 --json": "e2cfe824c83b9fa7706ed2658f30acb839a710a7effadc384d65a514fa2e7c1c",
    "detect --n 6 --json": "3e2e8deb64b4bf901a0995e8ce72db28b65338c201a7e890c9c42a8095e521ed",
    "detect --n 9 --json": "ed71000b4e872c9d0a37101f9a682364e35bd2115737d308f46ef346a9aa6882",
    "detect --n 19 --json": "1416793bdd83136e4fbe05f948ca8918faa0beb4ec940b53240c17ce5d88bd30",
    "detect --n 5": "5f9ce89f47aa925b3af20ee80e1ed7ac9db097bcc3d47b3bb8eadcd6a846fa29",
    "rep --n 2": "b71a6844bf9d52b7b8232fe6904673eca02ef676b0d947d9a91c3fb5232b6d14",
    "rep --n 3 --root 1": "45c74ffc391093090ef252b90e0da4d9498276c03c3e5b67e234215f4301f746",
    "rep --n 8 --root 5": "c94769dbd5a21eba8a8660af16d86b5fc8214b2a88905c6434f99efc6eb969e5",
    "rep --n 12 --root 3": "ad5a59062d11d0468b0df4ccda76694ead49e2a7dac274ba3dbb1c5946185c74",
    "rep --n 24 --root 3": "0f7f27e4d7928343ae5867a100b851b8f0a78c057a2487064481f845fe203338",
    "verify-paper": "c14dd7cde19c1a9acd043ff6943b61c4ec3ab33b4b7ff48dceabb974fc106ae8",
    "verify-paper --n 16": "183476b7de33743474b5eeba1a0bbb42486201da9bcca7b6c12623bb07f27770",
    "cheb --kind f --j 5 --format pretty": "41dfec809e528fba88bd9491e3dd560ea15e228272fdddc9acbe16399eab510a",
    "cheb --kind f --j 5 --format json": "d22fbba7c34f4e8f4dd3c21e0cdd4e556987e66a8e6cf88b96f0b4df5f8528a5",
    "cheb --kind f --j 30 --format pretty": "89a5e3c2624d3f0aa6894af43369e2f73af5fdcefc7d7df20c6f22aff4bc77ad",
    "cheb --kind f --j 30 --format json": "74bc856aa1b4153380aad3ae2849011f8e08481816b5ba9671250c5bf5ae9b12",
    "cheb --kind g --j 5 --format pretty": "82111b1640290d31c6575cd6166e61ed9b8516a2ec083cb9b94f4b779523bc36",
    "cheb --kind g --j 5 --format json": "bd24fe835f3f263881a8612b5a86db6a88085eef9b85c99a8b022c67b94ce695",
    "cheb --kind g --j 30 --format pretty": "0f55822486a515efebbd846ad9370310a48a25f787ddcdd470a725467bdc9f77",
    "cheb --kind g --j 30 --format json": "5a1240157189c6b8db928c12019ee6d450b239041f1f70ecb772aac31b7ea955",
    "cheb --kind G --j 5 --format pretty": "2cff9dce9caba92e0b319e6af1093907aa47553876bfd347352e820a2969dc89",
    "cheb --kind G --j 5 --format json": "2ca4ac9a6f66ce446fee21407bfe2668bd48c58e6d6d3b3d364e42cbe326df1c",
    "cheb --kind G --j 30 --format pretty": "6b26ef1f9db4bfe273fe24ca47a6545b35526ec7ff2e88c41fac167d646f828e",
    "cheb --kind G --j 30 --format json": "4cbc4dbe9974274d389320f503d51d0e2890a75f000abf851fe1360405b21676",
    "cheb --kind G --j 60 --format json": "9bf3bc19cc5a0db9d613eb5492aec0d13d952e79888bcd0b3e7b3920c41fa713",
    "variety --n 2 --model X --format pretty": "65371040c774775017fa07bd9e87dbc2871e151f2f74077f47bbdf2bc0af03f7",
    "variety --n 2 --model D --split --format pretty": "66ae60431640abb31d79e155fff8adcc2b88cf1ad10b11d86f2eee39107a90f4",
    "variety --n 2 --model X --format json": "d6b4a42d8b39fda7fd22ad3ee37efe824ff0b4c42390578908b6012b3ecc7c6d",
    "variety --n 2 --model D --split --format json": "a4429c364dd664a6d73a71f7d9cff192e3a84343a933fade2c637a7ce520a43b",
    "variety --n 3 --model X --format pretty": "8f587fb86913da6d460df69bcc5b3ff8ad9a9d3567440a51dbe092692d0912f4",
    "variety --n 3 --model D --split --format pretty": "f7dfbf0a04fd57ac8ad91a89235dbbd5ed7963565edb09f3cd180c6cd1cfc0b9",
    "variety --n 3 --model X --format json": "761a4727aeb7f92a5267b2bc681c74e2b4aecad5e76a2d35765d6e93a2591704",
    "variety --n 3 --model D --split --format json": "8839af9dbb31813dc3d93fe42acaaf836382ed81e6379c7e7e95142ca2854784",
    "variety --n 4 --model X --format pretty": "9b4812e85392a14873e3d8c2256594ccf5a027bb2e46bc8a03f068b12b220fd5",
    "variety --n 4 --model D --split --format pretty": "ce064ffad631fbbff0bd6cfa296c9665fde9f410591692cb902a239e8828a580",
    "variety --n 4 --model X --format json": "2666ab01d79a3beed467b5c127af7fa5324e2b0638c1fbfcfbada07f043b98c7",
    "variety --n 4 --model D --split --format json": "a5ed15de50b9ef799175928903d2508547331bf2b58007cce8f322eb4ebba551",
    "variety --n 6 --model X --format pretty": "55ec4de9027457af4452e3079b57c8bf751d441fd3a57c0b5aac57034a14437d",
    "variety --n 6 --model X --format json": "0a6756d64e566f70acc2bbe26591ba92399d1f6447344e67ec4b7eaacaa64fd2",
    "variety --n 8 --model X --format pretty": "ac8ae63147253c4e8ef219feb4d4adeabf2d3d1821fa2d6f1254f79c557d3175",
    "variety --n 8 --model X --format json": "88244dc4985b150262f17b33c08ed4080fed06f64ed926b5515adefbe17c39ce",
    "variety --n 10 --model X --format json": "d196c49fc9600692856f9e3ba18befcb2edab4bc6e625d0046178fcaf452280d",
}


def _pin_id(argv):
    """"intersect --n 2" -> "intersect-2": the argv without its option names;
    a detect pin without --json, its text form, ends in "-text"."""
    words = [w for w in argv.split() if not w.startswith("--")]
    if words[0] == "detect" and "--json" not in argv:
        words.append("text")
    return "-".join(words)


@pytest.mark.parametrize("argv", sorted(OUTPUT_SHA256), ids=_pin_id)
def test_report_output_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("CVTK_MAX_N", "3")  # not read: the output is the default's
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_SHA256[argv]


EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
# (exit code, sha256 of stdout, sha256 of stderr) of argv that argparse
# answers itself, recorded while every invocation built all nine subcommand
# parsers, at 80 columns.
PARSER_PINS = {
    "--help": (0, "73a649a297fe47013a2858ae9389a4d0c12c412884ba4705439bc0fd995c057e", EMPTY_SHA256),
    "detect --help": (0, "c0cf35834444a5c0820553269b7002984bc7168c8e5ce6cdde41b48c2402c335", EMPTY_SHA256),
    "frobnicate": (2, EMPTY_SHA256, "330571580f8f79b15d30c9263b5f0d900f146cc455a07d94aa234fd28c9b9d13"),
    "detect --n 129": (2, EMPTY_SHA256, "ad3620a905d69a01945d645248da3220963cbd22cbb7953ca27ca02b5a90ce3b"),
    "verify-paper --n 3 --fixtures X": (2, EMPTY_SHA256, "66ab687e03404e94dfbda17a20f06fd6324ef2337e188b12f0541e0a0c9fd5af"),
    "detect --n 3 --bogus": (2, EMPTY_SHA256, "68510ab10c4190e183e06eca8d0415caa8ac1be943763489a13aa239abc1be40"),
    "": (2, EMPTY_SHA256, "1218430f518143a094ee319f10e44f7adf6839725a1ebe6d9f5d995956e4133b"),
}


@pytest.mark.parametrize("argv", sorted(PARSER_PINS))
def test_parser_output_pinned(monkeypatch, capsys, argv):
    """argparse's answers to help and usage errors stay as pinned; the
    top-level usage lists every command."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    out, err = capsys.readouterr()
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (out, err))
    assert (exc.value.code, *digests) == PARSER_PINS[argv]


def _valid_tokens(flag, kwargs):
    """flag with a value that its type and choices accept."""
    if "action" in kwargs:
        return [flag]
    if "choices" in kwargs:
        return [flag, kwargs["choices"][-1]]
    return [flag, "3" if "type" in kwargs else "out.json"]


def _parser_corpus(command):
    """(well-formed argvs, every argv) of one command, built from its option
    table: all orders of every subset of its options, each value from a pool
    of good and bad values alone and repeated, --opt=value, abbreviations,
    missing values, '--', help and stray words."""
    options = SUBCOMMANDS[command][2]
    singles = [_valid_tokens(flag, kwargs) for flag, kwargs in options]
    well_formed = [
        [command, *itertools.chain(*subset)]
        for r in range(len(singles) + 1)
        for subset in itertools.permutations(singles, r)
    ]
    choices = {c for _, kwargs in options for c in kwargs.get("choices", ())}
    ceilings = (MAX_N, MAX_VARIETY_N, MAX_J, MAX_WORD, MAX_CHECK_N)
    pool = sorted(choices) + [
        "0", "2", "3", "-3", "", "x", "2.5", " 4", "1e3", "--n", "-", "Z",
        *(str(c + d) for c in ceilings for d in (0, 1)),
    ]
    required = [t for (_, kwargs), tokens in zip(options, singles) if kwargs.get("required")
                for t in tokens]
    corpus = list(well_formed)
    for (flag, kwargs), tokens in zip(options, singles):
        rest = [t for (f, k), ts in zip(options, singles) if k.get("required") and f != flag
                for t in ts]
        for value in ([] if "action" in kwargs else pool):
            corpus += [
                [command, *rest, flag, value],
                [command, flag, value, *rest],
                [command, *rest, flag, value, *tokens],
                [command, *tokens, *rest, flag, value],
            ]
        corpus += [
            [command, *required, *tokens, *tokens],
            [command, *rest, f"{flag}={tokens[-1]}"],
            [command, *rest, flag[:-1], *tokens[1:]],
            [command, *rest, flag],
        ]
    for extra in (["--"], ["-h"], ["--help"], ["--bogus"], ["x"], ["--", "x"]):
        corpus += [[command, *required, *extra], [command, *extra, *required]]
    return well_formed, corpus


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_fast_parse_agrees_with_argparse(capsys, command):
    """On every argv of the corpus the fast path returns argparse's Namespace
    or None, and None wherever argparse exits; it reads every well-formed
    argv that argparse accepts."""
    well_formed, corpus = _parser_corpus(command)
    parser = build_parser()
    read = 0
    for argv in corpus:
        fast = _parse_fast(argv)
        try:
            expected = parser.parse_args(argv)
        except SystemExit:
            assert fast is None, argv
            continue
        assert fast == expected if argv in well_formed else fast in (None, expected), argv
        read += fast is not None
    capsys.readouterr()
    assert read >= len(SUBCOMMANDS[command][2])


DETECT_PINS = sorted(argv for argv in OUTPUT_SHA256 if argv.startswith("detect"))


def _count_min_polys(monkeypatch):
    """Record the variable of every minimal polynomial the report computes."""
    from cvtk import intersect

    good = intersect.nf_minimal_polynomial
    calls = []
    monkeypatch.setattr(
        intersect, "nf_minimal_polynomial", lambda a, var: calls.append(var) or good(a, var)
    )
    return calls


def test_detect_computes_no_minimal_polynomial(monkeypatch, capsys):
    calls = _count_min_polys(monkeypatch)
    for argv in DETECT_PINS:
        assert main(argv.split()) == 0
        capsys.readouterr()
    assert calls == []


def test_intersect_computes_one_minimal_polynomial(monkeypatch, capsys):
    """intersect runs the general minimal polynomial once, for x^2; the
    longitude polynomial is read off the meridian's."""
    pins = sorted(argv for argv in OUTPUT_SHA256 if argv.startswith("intersect"))
    calls = _count_min_polys(monkeypatch)
    for argv in pins:
        assert main(argv.split()) == 0
        capsys.readouterr()
        assert calls == ["x"], argv
        calls.clear()


@pytest.mark.parametrize("argv", ["detect --n 8 --json", "intersect --n 3"])
def test_failed_meridian_certificate_exits_one(monkeypatch, capsys, argv):
    """A meridian certificate forced to fail (G_n read as not f_n^2 mod 2) is
    a verification failure when the report is built: exit 1, nothing
    printed, and no minimal polynomial computed in its place.  verify-paper
    fails exactly the rows that read a report, each with the build's error."""
    from cvtk import intersect

    monkeypatch.setattr(intersect, "square_mod_two", lambda G, f: False)
    calls = _count_min_polys(monkeypatch)
    assert main(argv.split()) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("verification failure:")
    assert calls == []
    if argv.startswith("intersect"):
        assert main(["verify-paper", "--n", "3"]) == 1
        out = capsys.readouterr().out
        assert _fail_names(out) == {
            "meridian-nonintegral", "longitude-integral", "slope-verdict", "reducible-character"
        }
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert all("raised VerificationError: G_2 is not f_2^2 mod 2" in line for line in failed)
        assert out.endswith("\n1/5 checks passed\n")


@pytest.mark.parametrize("argv", ["detect --n 8 --json", "intersect --n 3"])
def test_failed_longitude_identity_exits_one(monkeypatch, capsys, argv):
    """A longitude trace of -2 - (4n^2 + 1)(x^2 - 4), with 4n^2 + 1 in place
    of 4n^2, fails the identity that proves it integral: a verification
    failure, exit 1, before anything is printed."""
    from cvtk import intersect

    monkeypatch.setattr(
        intersect,
        "longitude_value",
        lambda ctx: -2 - (4 * ctx.n * ctx.n + 1) * (ctx.x_squared - 4),
    )
    assert main(argv.split()) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("verification failure: longitude trace at n = ")


def test_contradicted_certificate_is_a_verification_failure(monkeypatch, capsys):
    """A report exists only where its certificates hold: a verdict that
    contradicts them raises when it is computed, an integral meridian
    verdict as well as a non-integral longitude one, and the report's status
    stays "ok".  detect, which computes neither verdict, still exits 0;
    intersect, which computes both, exits 1."""
    from cvtk import intersect, trace
    from cvtk.intersect import build_intersection_report
    from cvtk.numfield import IntegralityVerdict
    from cvtk.trace import VerificationError

    integral = IntegralityVerdict(is_algebraic_integer=True, denominator_lcm=1, bad_primes=())
    with monkeypatch.context() as m:
        m.setattr(intersect, "integrality_verdict", lambda poly: integral)
        report = build_intersection_report(3)
        assert report.status == "ok"
        with pytest.raises(VerificationError, match="contradicting its mod-2 certificate"):
            report.locus.meridian_verdict
        assert report.status == "ok" and report.slope.detected_slope == 0
        assert main(["intersect", "--n", "3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("verification failure: meridian trace at n = 3 is an algebraic integer")
    halves = IntegralityVerdict(is_algebraic_integer=False, denominator_lcm=2, bad_primes=(2,))
    monkeypatch.setattr(trace, "integrality_verdict", lambda poly: halves)
    assert main(["detect", "--n", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    assert main(["intersect", "--n", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failure: longitude trace at n = 3 is not an algebraic integer")
    assert main(["verify-paper", "--n", "3"]) == 1
    assert _fail_names(capsys.readouterr().out) == {"longitude-integral"}


def test_cheb_command(capsys):
    assert main(["cheb", "--kind", "g", "--j", "3"]) == 0
    assert capsys.readouterr().out.strip() == "u^2 - u - 1"
    assert main(["cheb", "--kind", "f", "--j", "4", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"var": "u", "coeffs": ["0", "-2", "0", "1"]}


def test_variety_command(capsys):
    from cvtk.variety import d_variety_poly

    assert main(["variety", "--n", "2", "--model", "D"]) == 0
    assert capsys.readouterr().out.strip() == str(d_variety_poly(2))
    assert main(["variety", "--n", "2", "--model", "D", "--split", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert set(obj) == {"line", "quotient"}
    assert obj["line"]["terms"] == [
        {"coeff": "-1", "exp": [0, 1]},
        {"coeff": "1", "exp": [1, 0]},
    ]
    assert main(["variety", "--n", "3", "--model", "X", "--format", "json"]) == 0
    json.loads(capsys.readouterr().out)


def test_word_command(capsys):
    assert main(["word", "--p", "15", "--q", "11"]) == 0
    out = capsys.readouterr().out
    assert "word: aBabAbABaBabAb" in out
    assert "length: 14" in out
    assert main(["word", "--p", "15", "--q", "4"]) == 0
    capsys.readouterr()
    assert main(["word", "--p", "15", "--q", "5"]) == 2


def test_alexander_command(capsys):
    assert main(["alexander", "--n", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["polynomial"]["coeffs"] == ["4", "-7", "4"]
    assert obj["discriminant"] == "-15"


def test_slopes_command(capsys):
    assert main(["slopes", "--n", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert [c["slope"] for c in obj["candidates"]] == [-22, -12, -12, 0]
    assert obj["candidates"][3]["expansion"] == [6, 6]


def test_detect_command(capsys):
    assert main(["detect", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "detected boundary slope: 0" in out
    assert "surface: genus 1 Seifert surface" in out
    assert main(["detect", "--n", "2", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["slope"]["surface_description"] == "genus 1 Seifert surface"
    assert obj["status"] == "ok"


def test_rep_command(capsys):
    assert main(["rep", "--n", "2", "--root", "0"]) == 0
    out = capsys.readouterr().out
    assert "tr(longitude) ~ 14 + 24i" in out
    assert "family relator residual < 1e-09: yes" in out
    assert "two-bridge (15, 11) relator residual < 1e-09: yes" in out
    assert "mu ~" in out


def test_cli_import_leaves_mpmath_out():
    """No runtime module imports mpmath: it is a test-only oracle."""
    proc = subprocess.run(
        [sys.executable, "-c", "import cvtk.cli, sys; assert 'mpmath' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=Path(__file__).resolve().parent.parent,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cvtk.cli", "cheb", "--kind", "G", "--j", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "u^2 - 2*u + 2"
