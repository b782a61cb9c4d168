"""Tests of the benchmark itself: the output gate must catch wrong output, and
each workload's smallest operation must run clean, untraced and traced.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json

import run


def _smallest(workload):
    return min(run.WORKLOADS[workload], key=lambda op: op.n)


def test_corrupted_reference_hash_counts_as_failed():
    reference = run.load_reference()
    detect4 = _smallest("detect")
    reference[detect4.key] = "0" * 64
    ops = run.WORKLOADS["detect"][:2]
    samples = run.measure(ops, seed=0, seconds=0, trace=False, reference=reference)
    failed = {s.key for s in samples if s.error}
    assert failed == {detect4.key}
    result = run.report("detect", 0, samples, trace=False)
    assert result["failed"] == 1 and result["correct"] is False


def test_corrupted_expected_verdict_counts_as_failed():
    reference = run.load_reference()
    for workload, field, wrong in (
        ("detect", "detected_slope", 1),
        ("verify-paper", "verify_summary", "27/28 checks passed"),
        ("fields", "longitude_integral", False),
    ):
        expect = dict(run.EXPECT, **{field: wrong})
        sample = run.run_op(_smallest(workload), False, 60, reference, expect)
        assert sample.error, (workload, field)
        assert sample.record["exit"] == 0  # the program succeeded; the gate failed it


def test_smallest_operation_of_each_workload_runs_clean():
    """Smoke mode: one untraced and one traced run of each smallest operation,
    whose metrics carry exactly the names BENCHMARK.json declares."""
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    reference = run.load_reference()
    for workload in run.WORKLOADS:
        op = _smallest(workload)
        plain = run.run_op(op, False, 60, reference, run.EXPECT)
        traced = run.run_op(op, True, 60, reference, run.EXPECT)
        assert plain.error is None and traced.error is None, (plain.error, traced.error)
        assert plain.setup_s > 0 and plain.rss_kb > 0 and plain.record["speed"]
        assert "spans" not in plain.record
        layers = run.per_layer([plain, traced])
        assert list(layers) == [m["name"] for m in declared["per_layer"]]
        assert 0.5 < layers["span_coverage"][0] <= 1.0  # argparse is outside every span
        e2e = run.end_to_end([plain])
        assert list(e2e) == [m["name"] for m in declared["end_to_end"]]
        assert all(value > 0 for value, _ in e2e.values())


def test_timeout_counts_as_failed():
    sample = run.run_op(_smallest("verify-paper"), False, 1, run.load_reference(), run.EXPECT)
    assert sample.error == "timeout after 1 s"
