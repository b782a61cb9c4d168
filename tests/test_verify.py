"""Unit tests for the check runner plumbing (the checks themselves are
exercised end to end by the CLI tests and the acceptance gate)."""

import pytest

from cvtk import cheb, verify
from cvtk.cli import MAX_CHECK_N
from cvtk.ratpoly import UniPoly
from cvtk.verify import (
    CHECKS,
    DEFAULT_MAX_N,
    CheckResult,
    VerifyContext,
    all_passed,
    render_results,
    run_property_checks,
)


def test_check_names_unique_and_fixed():
    names = [name for name, _ in CHECKS]
    assert len(names) == len(set(names)) == 28


def test_render_results_marks_failures():
    results = [
        CheckResult(name="alpha", ok=True, detail="fine"),
        CheckResult(name="beta-long-name", ok=False, detail="broke"),
    ]
    text = render_results(results)
    lines = text.splitlines()
    assert lines[0].startswith("ok ")
    assert lines[1].startswith("FAIL")
    assert lines[2] == "1/2 checks passed"
    assert not all_passed(results)
    assert all_passed(results[:1])


def test_property_checks_validate_n():
    with pytest.raises(ValueError):
        run_property_checks(1)
    with pytest.raises(ValueError):
        run_property_checks("3")
    assert VerifyContext().max_n == DEFAULT_MAX_N
    # The CLI ceiling is not the library's.
    assert VerifyContext(max_n=MAX_CHECK_N + 1).max_n == MAX_CHECK_N + 1


def test_property_checks_run_clean():
    results = run_property_checks(2)
    assert len(results) == 5
    assert all_passed(results)


def test_numeric_checks_share_one_representation_per_point(monkeypatch):
    """The three numeric checks read one representation per certified point:
    2 points at n = 2 and 4 at n = 3."""
    real = verify.numeric_rep
    built = []
    monkeypatch.setattr(verify, "numeric_rep", lambda n, r, x: built.append(n) or real(n, r, x))
    numeric = ["relator-numeric", "standard-relators", "longitude-numeric"]
    assert all_passed(verify._run(VerifyContext(max_n=2), numeric))
    assert sorted(built) == [2] * 2 + [3] * 4


def test_bezout_and_eliminant_checks_share_one_budget(monkeypatch):
    """The bezout and eliminants checks read one Bezout budget per n."""
    real = verify.bezout_budget
    built = []
    monkeypatch.setattr(verify, "bezout_budget", lambda n, fixtures: built.append(n) or real(n, fixtures))
    names = ["bezout-n2", "bezout-n3", "eliminants-n2", "eliminants-n3"]
    assert all_passed(verify._run(VerifyContext(max_n=2), names))
    assert sorted(built) == [2, 3]


def test_numeric_checks_fail_off_the_points(monkeypatch):
    """Moving every r0 by 1e-3 fails exactly the three checks that evaluate
    words numerically, and each FAIL line names its check.  A context builds
    its representations once, so the moved points need a new context."""
    numeric = ["relator-numeric", "standard-relators", "longitude-numeric"]
    assert all_passed(verify._run(VerifyContext(max_n=2), numeric))
    real = verify.numeric_rep
    monkeypatch.setattr(verify, "numeric_rep", lambda n, r0, x0: real(n, r0 + 1e-3, x0))
    results = verify._run(VerifyContext(max_n=2), [name for name, _ in CHECKS])
    assert [res.name for res in results if not res.ok] == numeric
    lines = render_results(results).splitlines()
    for name in numeric:
        assert any(line.startswith("FAIL") and line.split()[1] == name for line in lines)


def test_mod_two_checks_fail_on_one_odd_coefficient(monkeypatch):
    """One odd coefficient added to a cached G_n fails both the mod-two
    identity and the mod2-congruence check, which names n."""
    assert cheb.identity_checks(7)["mod-two"]
    assert verify.check_mod2_congruence(None)[0]
    monkeypatch.setitem(cheb._G, 7, cheb.G_poly(7) + UniPoly.gen("u") ** 3)
    assert not cheb.identity_checks(7)["mod-two"]
    assert verify.check_mod2_congruence(None) == (
        False, "G_n - f_n^2 has an odd coefficient at n = 7"
    )
