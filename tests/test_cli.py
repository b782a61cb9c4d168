"""End-to-end command tests, including the fixture negative control.

The negative control is the guard on the whole verification harness: editing
any single frozen coefficient, of any field type, must flip the verify table
to exit 1 while naming a failing check.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from cvtk.cli import canonical_json, main
from cvtk.golden import default_fixtures, fixtures_to_json


def _fail_names(out):
    return {
        line.split()[1] for line in out.splitlines() if line.startswith("FAIL")
    }


def _run_with_fixtures(tmp_path, monkeypatch, capsys, mutate):
    monkeypatch.setenv("CVTK_MAX_N", "2")
    obj = fixtures_to_json(default_fixtures())
    mutate(obj)
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code = main(["verify-paper", "--fixtures", str(path)])
    return code, capsys.readouterr().out


PERTURBATIONS = (
    ("component", lambda o: o["2"]["X0"]["terms"][0].update(coeff="99"), "x-variety-n2"),
    ("x-poly", lambda o: o["2"]["x_poly"]["coeffs"].__setitem__(0, "44"), "meridian-n2-exact"),
    ("r-poly", lambda o: o["2"]["r_poly"]["coeffs"].__setitem__(1, "-3"), "r-poly-n2"),
    ("longitude", lambda o: o["2"]["longitude_min_poly"]["coeffs"].__setitem__(0, "771"), "longitude-n2-exact"),
    ("bezout", lambda o: o["2"]["bezout"].__setitem__(0, 21), "bezout-n2"),
    ("longitude-n3", lambda o: o["3"]["longitude_min_poly"]["coeffs"].__setitem__(1, "-385361"), "longitude-n3-exact"),
)


@pytest.mark.parametrize("label,mutate,expected", PERTURBATIONS, ids=[p[0] for p in PERTURBATIONS])
def test_negative_control(tmp_path, monkeypatch, capsys, label, mutate, expected):
    code, out = _run_with_fixtures(tmp_path, monkeypatch, capsys, mutate)
    assert code == 1
    assert expected in _fail_names(out)


def test_verify_paper_passes(monkeypatch, capsys):
    monkeypatch.setenv("CVTK_MAX_N", "2")
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


def test_usage_errors_exit_two(capsys):
    assert main(["intersect", "--n", "1"]) == 2
    assert main(["cheb", "--kind", "f", "--j", "-1"]) == 2
    assert main(["variety", "--n", "2", "--model", "X", "--split"]) == 2
    assert main(["rep", "--n", "2", "--locus", "5"]) == 2
    assert main(["rep", "--n", "2", "--root", "9"]) == 2
    assert main(["verify-paper", "--fixtures", "/nonexistent/fixtures.json"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
    capsys.readouterr()


def test_internal_error_exits_one(monkeypatch, capsys):
    from cvtk import numfield

    good = numfield.squarefree_part
    monkeypatch.setattr(numfield, "squarefree_part", lambda p: good(p) + 1)
    assert main(["detect", "--n", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal error: ")
    assert "does not vanish" in err


def test_root_nonconvergence_exits_one(monkeypatch, capsys):
    import mpmath

    def no_convergence(*args, **kwargs):
        raise mpmath.mp.NoConvergence("Didn't converge in maxsteps=200 steps.")

    monkeypatch.setattr(mpmath, "polyroots", no_convergence)
    assert main(["intersect", "--n", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal error: root approximation did not converge")
    assert "degree-" in err and "-bit coefficients" in err


def _root_finder_approx(locus):
    """The approx block as root-finding on each minimal polynomial would give it."""
    from cvtk.cli import complex_str
    from cvtk.knotgrp import complex_roots

    def strs(poly):
        return [complex_str(z) for z in complex_roots(poly)]

    return {
        "modulus_roots": strs(locus.modulus),
        "x_roots": [s for f in locus.x_min_polys for s in strs(f)],
        "longitude_roots": strs(locus.longitude_min_poly),
    }


@pytest.mark.parametrize("n", range(2, 11))
def test_approximations_match_root_finding_on_min_polys(capsys, n):
    from cvtk.intersect import build_intersection_report

    assert main(["intersect", "--n", str(n)]) == 0
    loci = json.loads(capsys.readouterr().out)["loci"]
    report = build_intersection_report(n)
    assert [obj["approx"] for obj in loci] == [
        _root_finder_approx(locus) for locus in report.loci
    ]


def test_wrong_longitude_count_exits_one(monkeypatch, capsys):
    from cvtk import cli

    monkeypatch.setattr(cli, "longitude_value", lambda ctx: 1)
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


def test_integral_meridian_is_a_verification_failure(monkeypatch, capsys):
    from cvtk import intersect
    from cvtk.numfield import IntegralityVerdict

    integral = IntegralityVerdict(is_algebraic_integer=True, denominator_lcm=1, bad_primes=())
    monkeypatch.setattr(intersect, "integrality_verdict", lambda poly: integral)
    assert main(["detect", "--n", "2", "--json"]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "verification-failure"
    assert obj["slope"]["detected_slope"] == "undetermined"
    assert obj["slope"]["meridian_integral"] is True


# sha256 of each command's standard output, recorded before the report records
# became frozen. The canonical JSON must stay byte-identical under refactors.
OUTPUT_SHA256 = {
    ("intersect", 2): "84c4c0cdd549437ddc247d4401e1679db4a0910ac88b08b54677c2bf3c993403",
    ("intersect", 3): "e0b7681188a2da39e9d421d3d323ba3ce5802585ada5fa81051115ca2537a1c2",
    ("intersect", 4): "8b25241147535cbb8b8d9ca1efb06cde14423eb2fcc116d7d203c5cd5d250333",
    ("intersect", 5): "5f72db167a494fb361f3c88c5944a572f5e57acb39f3110d19d8ac4f555457ca",
    ("intersect", 6): "aaa37376cba7e8eff529b952b3ec14204322af7690c4168e1f26c8c44685559a",
    ("intersect", 12): "2eeda1067bcb7e0091c9a4d8142d184399923e0f2ac6b97c64774b240baf2014",
    ("intersect", 24): "2123f7bfcf24f8f63f736930a371324763b39e1314afcc5a421cfbaf999564ab",
    ("detect", 2): "beb8244ce3e9e7ced537d6124198bee0578890959e1ccab6b2241ce56d6cae05",
    ("detect", 3): "448cc9b5fb7f55053e144c84412bea65ed6ca5528c21a29dd69d30ac7909a112",
    ("detect", 4): "278f3c9e2d95e16415073877410fe2d543e810e811f32174dd529fa74537d271",
    ("detect", 5): "e2cfe824c83b9fa7706ed2658f30acb839a710a7effadc384d65a514fa2e7c1c",
    ("detect", 6): "3e2e8deb64b4bf901a0995e8ce72db28b65338c201a7e890c9c42a8095e521ed",
}


@pytest.mark.parametrize("command,n", sorted(OUTPUT_SHA256))
def test_report_output_pinned(capsys, command, n):
    argv = [command, "--n", str(n)] + (["--json"] if command == "detect" else [])
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_SHA256[command, n]


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
    assert main(["rep", "--n", "2", "--locus", "0", "--root", "0"]) == 0
    out = capsys.readouterr().out
    assert "tr(longitude) ~ 14 + 24i" in out
    assert "family relator residual" in out
    assert "two-bridge (15, 11) relator residual" in out
    assert "mu ~" in out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cvtk.cli", "cheb", "--kind", "G", "--j", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "u^2 - 2*u + 2"
