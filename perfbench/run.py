"""cvtk benchmark: cold CLI and library operations, one client, closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload detect --seed 1 --seconds 25 --trace 0

Every operation runs in a fresh interpreter (child.py), because a CLI user pays
for every invocation from a cold start; memoisation inside one process must not
count as a gain no user sees.  The next operation starts only when the last one
has ended.  The seed permutes the order of operations within each pass.

The first pass always runs in full; after it, an operation starts only if its
last duration still fits in --seconds.  Every output is checked against a
sha256 reference recorded at the seed commit and against the semantic facts
the paper states; any mismatch, non-zero exit, exception or timeout counts as
a failed operation.

Times are reference-speed seconds: each child samples the host's CPU speed
while it runs, and SpeedClock corrects for the drift (see child.py).

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 each operation runs twice, untraced and
then traced (tracer.py), the spans are written to perfbench/out/, and the
last line carries the per-layer metrics.  Lines before it are for people.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MAX_N = "8"  # CVTK_MAX_N, pinned to verify-paper's default
OP_TIMEOUT_S = 60.0  # a cliff becomes a counted failure, not a stalled run
HARD_DEADLINE_S = 150.0  # every run ends well inside 180 s
SETUP_PROBES = 5  # extra set-up-only children per run, for a steady setup_s
REF_KERNEL_NS = 60_000  # child.py's speed kernel at the reference speed

ENV = {
    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "PYTHONIOENCODING": "utf-8",
    "CVTK_MAX_N": MAX_N,
}


@dataclass(frozen=True)
class Op:
    workload: str
    n: int
    kind: str  # "setup", "cli" or "fields"; see child.py
    args: tuple

    @property
    def key(self) -> str:
        return f"{self.workload}:{self.n}"


def _cli_ops(workload, grid, *extra):
    return tuple(
        Op(workload, n, "cli", (workload, "--n", str(n)) + extra) for n in grid
    )


SETUP = Op("setup", 0, "setup", ())

WORKLOADS = {
    "detect": _cli_ops("detect", (4, 8, 12), "--json"),
    "intersect": _cli_ops("intersect", (4, 8, 12)),
    "verify-paper": (Op("verify-paper", int(MAX_N), "cli", ("verify-paper",)),),
    "fields": tuple(Op("fields", n, "fields", (str(n),)) for n in (16, 18, 19)),
}

# Facts the paper states, checked on every output besides its hash.
EXPECT = {
    "status": "ok",
    "detected_slope": 0,
    "verify_summary": "28/28 checks passed",
    "meridian_bad_prime": 2,
    "longitude_integral": True,
}


def load_reference() -> dict:
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def semantic_error(op: Op, stdout: str, expect: dict):
    """The first stated fact the output contradicts, or None."""
    if op.workload in ("detect", "intersect"):
        obj = json.loads(stdout)
        if obj["status"] != expect["status"]:
            return f"status {obj['status']!r}"
        if obj["slope"]["detected_slope"] != expect["detected_slope"]:
            return f"detected slope {obj['slope']['detected_slope']!r}"
    elif op.workload == "verify-paper":
        last = stdout.rstrip("\n").rsplit("\n", 1)[-1]
        if last != expect["verify_summary"]:
            return f"verify-paper summary {last!r}"
    else:
        for locus in json.loads(stdout)["loci"]:
            for verdict in locus["meridian_verdicts"]:
                if verdict["integral"]:
                    return "integral meridian trace"
                if expect["meridian_bad_prime"] not in verdict["bad_primes"]:
                    return f"bad primes {verdict['bad_primes']}"
            integral = locus["longitude"]["verdict"]["integral"]
            if integral != expect["longitude_integral"]:
                return f"longitude integral: {integral}"
    return None


def gate(op: Op, record: dict, reference: dict, expect: dict):
    """Why the operation failed, or None if its output is correct."""
    if record["error"]:
        return record["error"]
    if record["exit"] != 0:
        return f"exit code {record['exit']}"
    digest = hashlib.sha256(record["stdout"].encode("utf-8")).hexdigest()
    if digest != reference.get(op.key):
        return f"output sha256 {digest[:12]} differs from the reference"
    try:
        return semantic_error(op, record["stdout"], expect)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


class SpeedClock:
    """Reference-speed time read from a child's speed samples (see child.py).

    Between two samples the clock runs at REF_KERNEL_NS / (the later sample's
    kernel time) and stands still for the kernel's own run, so an interval
    reads how long it would have taken at the reference speed, less the
    sampler's cost.  Before the first sample and after the last, the nearest
    rate holds.
    """

    def __init__(self, samples):
        self.knots = [end for end, _ in samples]
        self.rates = [REF_KERNEL_NS / took for _, took in samples]
        self.marks = [0.0]
        for i in range(1, len(samples)):
            gap = self.knots[i] - self.knots[i - 1] - samples[i][1]
            self.marks.append(self.marks[-1] + max(gap, 0) * self.rates[i])

    def at(self, t: int) -> float:
        knots = self.knots
        if not knots:
            return float(t)
        if t <= knots[0]:
            return (t - knots[0]) * self.rates[0]
        if t >= knots[-1]:
            return self.marks[-1] + (t - knots[-1]) * self.rates[-1]
        i = bisect.bisect_right(knots, t)
        part = (t - knots[i - 1]) / (knots[i] - knots[i - 1])
        return self.marks[i - 1] + part * (self.marks[i] - self.marks[i - 1])

    def seconds(self, start: int, end: int) -> float:
        return (self.at(end) - self.at(start)) / 1e9


@dataclass
class Sample:
    """One child: op_s and setup_s in reference-speed seconds, wall_s as is."""

    key: str
    traced: bool
    op_s: float
    wall_s: float
    setup_s: float = None
    rss_kb: int = None
    error: str = None
    record: dict = None
    clock: SpeedClock = None


def run_child(spec: dict, timeout: float):
    """(record or None, wall seconds, spawn clock, error) for one child."""
    cmd = [sys.executable, str(BENCH / "child.py"), json.dumps(spec)]
    spawn_ns = time.perf_counter_ns()
    try:
        proc = subprocess.run(
            cmd, env=ENV, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        wall = (time.perf_counter_ns() - spawn_ns) / 1e9
        return None, wall, spawn_ns, f"timeout after {timeout:.0f} s"
    wall = (time.perf_counter_ns() - spawn_ns) / 1e9
    try:
        return json.loads(proc.stdout.rsplit("\n", 2)[-2]), wall, spawn_ns, None
    except (ValueError, IndexError):
        tail = proc.stderr.strip().rsplit("\n", 1)[-1]
        return None, wall, spawn_ns, f"no result record (exit {proc.returncode}): {tail}"


def run_op(op: Op, traced: bool, timeout: float, reference: dict, expect: dict):
    """One operation in a fresh child; SETUP runs only the child's set-up."""
    spec = {"kind": op.kind, "args": list(op.args), "trace": int(traced)}
    record, wall, spawn_ns, error = run_child(spec, timeout)
    if record is None:
        return Sample(op.key, traced, wall, wall, error=error)
    clock = SpeedClock(record["speed"])
    return Sample(
        op.key,
        traced,
        op_s=clock.seconds(record["start_ns"], record["end_ns"]),
        wall_s=(record["end_ns"] - record["start_ns"]) / 1e9,
        setup_s=clock.seconds(spawn_ns, record["ready_ns"]),
        rss_kb=record["rss_kb"],
        error=None if op is SETUP else gate(op, record, reference, expect),
        record=record,
        clock=clock,
    )


def measure(ops, seed: int, seconds: float, trace: bool, reference=None, expect=EXPECT):
    """All samples of one run: set-up probes, then passes over `ops`."""
    reference = load_reference() if reference is None else reference
    start = time.monotonic()
    deadline = start + seconds

    def timeout():
        left = start + HARD_DEADLINE_S - time.monotonic()
        return max(1.0, min(OP_TIMEOUT_S, left))

    run_op(SETUP, False, timeout(), reference, expect)  # warm-up: byte-compiles src/
    samples = [run_op(SETUP, False, timeout(), reference, expect) for _ in range(SETUP_PROBES)]
    rng = random.Random(seed)
    modes = (False, True) if trace else (False,)
    last = {}
    while True:
        ran = False
        for op in rng.sample(ops, len(ops)):
            began = time.monotonic()
            if op.key in last and began + last[op.key] > deadline:
                continue
            for traced in modes:
                samples.append(run_op(op, traced, timeout(), reference, expect))
            last[op.key] = time.monotonic() - began
            ran = True
        if not ran:
            return samples


# ---------------------------------------------------------------------------
# Metrics.


def tail_summary(values) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    k = len(values)
    text = f"median {statistics.median(values):.4f}"
    p = math.floor(100 * (k - 10) / k) if k > 10 else 0
    if p >= 50:
        text += f", p{p} {statistics.quantiles(values, n=100)[p - 1]:.4f}"
    return text + f", n={k}"


def _by_key(samples):
    out = defaultdict(list)
    for s in samples:
        out[s.key].append(s)
    return out


def end_to_end(samples) -> dict:
    ops = _by_key(s for s in samples if s.key != SETUP.key and not s.traced)
    medians = {key: statistics.median(s.op_s for s in group) for key, group in ops.items()}
    setups = [s.setup_s for s in samples if s.setup_s is not None]
    failed = sum(1 for s in samples if s.error)
    return {
        "run_s": (sum(medians.values()), "s"),
        "max_op_s": (max(medians.values()), "s"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "peak_rss_mb": (max((s.rss_kb for s in samples if s.rss_kb), default=0) / 1024, "MB"),
        "ok_rate": ((len(samples) - failed) / len(samples), "ratio"),
    }


def span_table(sample: Sample):
    """{name: [calls, self_s, total_s]} and the top-level span time, all in
    reference-speed seconds."""
    spans = sample.record["spans"]
    took = [sample.clock.seconds(start, end) for _, start, end, _ in spans]
    own = list(took)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            own[parent] -= took[i]
    table = defaultdict(lambda: [0, 0.0, 0.0])
    top = 0.0
    for i, (name, _, _, parent) in enumerate(spans):
        row = table[name]
        row[0] += 1
        row[1] += own[i]
        row[2] += took[i]
        if parent < 0:
            top += took[i]
    return table, top


# Spans reported by self time and call count.
SELF_SPANS = (
    "variety.x_variety_poly",
    "variety.meridian_derivative_at_two",
    "variety.d_split",
    "variety.bezout_budget",
    "numfield.nf_minimal_polynomial",
    "ratpoly.char_poly",
    "numfield.integrality_verdict",
    "trace.longitude_trace",
    "factor.factor_over_rationals",
    "factor.squarefree_part",
    "knotgrp.complex_roots",
    "cheb.failed_identities",
    "ratpoly.resultant_in",
    "ratpoly.poly_gcd",
    "intersect.intersection_loci",
    "intersect.meridian_min_poly",
    "cli.canonical_json",
)
CHECK_NAMES = (
    "cheb-identities", "g-polynomials", "mod2-congruence", "x-variety-n2",
    "x-variety-n3", "d-split", "meridian-n2-exact", "meridian-n3-exact",
    "meridian-nonintegral", "longitude-n2-exact", "longitude-n3-exact",
    "longitude-integral", "slope-verdict", "bezout-n2", "bezout-n3",
    "eliminants-n2", "eliminants-n3", "delta-gamma", "relator-numeric",
    "standard-relators", "longitude-numeric", "reducible-character",
    "derivative-identity", "alexander", "r-poly-n2", "r-poly-n3",
    "x2-element-n2", "slope-candidates",
)
# Size counters: metric -> (sized value in tracer.SIZERS, reduction over calls).
SIZE_METRICS = {
    "factor.input_degree.max": ("factor.input_degree", max),
    "factor.input_coeff_bits.max": ("factor.input_coeff_bits", max),
    "knotgrp.complex_roots.degree_sum": ("knotgrp.complex_roots.degree", sum),
    "numfield.field_degree.max": ("numfield.field_degree", max),
    "numfield.minpoly_coeff_bits.max": ("numfield.minpoly_coeff_bits", max),
}


def sample_layers(sample: Sample) -> dict:
    """Per-layer values of one traced sample, by metric name."""
    table, top = span_table(sample)
    none = (0, 0.0, 0.0)
    out = {}
    for name in SELF_SPANS:
        calls, own, _ = table.get(name, none)
        out[f"{name}.self_s"] = own
        out[f"{name}.calls"] = calls
    out["cheb.f_poly.calls"] = table.get("cheb.f_poly", none)[0]
    out["intersect.build_intersection_report.s"] = (
        table.get("intersect.build_intersection_report", none)[2]
    )
    for check in CHECK_NAMES:
        out[f"verify.check.{check}.s"] = table.get(f"verify.check.{check}", none)[2]
    sizes = defaultdict(list)
    for name, value in sample.record["sizes"]:
        sizes[name].append(value)
    for metric, (name, reduce) in SIZE_METRICS.items():
        out[metric] = reduce(sizes[name]) if sizes[name] else 0
    out["_top_s"] = top
    return out


def layer_unit(metric: str) -> str:
    if metric.endswith((".self_s", ".s")):
        return "s"
    if metric.endswith("_bits.max"):
        return "bits"
    if metric in ("trace_overhead", "span_coverage"):
        return "ratio"
    return "count"


def per_layer(samples) -> dict:
    """Per-layer metrics of one pass: per-operation medians over the traced
    samples, summed over operations (maxima for the .max counts)."""
    plain = _by_key(s for s in samples if s.key != SETUP.key and not s.traced)
    traced = _by_key(s for s in samples if s.traced and s.record is not None)
    totals = defaultdict(float)
    untraced_s = traced_s = 0.0
    for key, group in traced.items():
        values = [sample_layers(s) for s in group]
        for metric in values[0]:
            med = statistics.median(v[metric] for v in values)
            if metric.endswith(".max"):
                totals[metric] = max(totals[metric], med)
            else:
                totals[metric] += med
        traced_s += statistics.median(s.op_s for s in group)
        untraced_s += statistics.median(s.op_s for s in plain[key])
    top_s = totals.pop("_top_s")
    totals["trace_overhead"] = traced_s / untraced_s
    totals["span_coverage"] = top_s / traced_s
    out = {}
    for metric, value in totals.items():
        unit = layer_unit(metric)
        out[metric] = (int(value) if unit in ("count", "bits") else value, unit)
    return out


def write_trace(workload: str, seed: int, samples) -> Path:
    """All spans of the run, grouped by operation, as one JSON file."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    operations = [
        {
            "id": i,
            "op": s.key,
            "start_ns": s.record["start_ns"],
            "end_ns": s.record["end_ns"],
            "spans": s.record["spans"],
            "sizes": s.record["sizes"],
            "speed": s.record["speed"],
        }
        for i, s in enumerate(samples)
        if s.traced and s.record is not None
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "operations": operations}, fh)
    return path


def report(workload: str, seed: int, samples, trace: bool) -> dict:
    """Print the human-readable summary; return the result object."""
    ops = [s for s in samples if s.key != SETUP.key]
    for key, group in sorted(_by_key(ops).items()):
        for traced in (False, True) if trace else (False,):
            runs = [s for s in group if s.traced == traced]
            label = "traced" if traced else "op_s"
            print(f"{key:18} {label:7} {tail_summary([s.op_s for s in runs])}"
                  f"; wall {tail_summary([s.wall_s for s in runs])}")
    print(f"{'setup':18} setup_s {tail_summary([s.setup_s for s in samples if s.setup_s is not None])}")
    for s in samples:
        if s.error:
            print(f"FAILED {s.key}{' (traced)' if s.traced else ''}: {s.error}")
    if trace:
        for key, group in sorted(_by_key(s for s in ops if s.traced and s.record).items()):
            table, _ = span_table(group[0])
            op_s = group[0].op_s
            heavy = sorted(table.items(), key=lambda kv: -kv[1][2])[:6]
            shares = ", ".join(f"{name} {row[2] / op_s:.0%}" for name, row in heavy)
            print(f"{key:18} span share of {op_s:.3f} s: {shares}")
        print(f"spans written to {write_trace(workload, seed, samples).relative_to(ROOT)}")
        metrics = per_layer(samples)
    else:
        metrics = end_to_end(samples)
    for name, (value, unit) in metrics.items():
        print(f"{name:48} {value:.6g} {unit}")
    failed = sum(1 for s in samples if s.error)
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cvtk" / "cli.py").is_file():
        print(f"error: no cvtk sources under {SRC}", file=sys.stderr)
        return 2
    samples = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(args.workload, args.seed, samples, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
