"""One benchmark operation in a fresh interpreter.

Usage: python3 child.py '<json spec>'

The spec is {"kind": "setup" | "cli" | "fields", "args": [...], "trace": 0|1}.
The child imports cvtk.cli and loads the golden fixtures (the set-up every CLI
invocation pays), notes the clock, runs the operation with its standard output
captured, and prints one JSON record as its last line: the clock at the end of
set-up and around the operation, exit code, captured output, peak RSS, the
speed samples and, when traced, the spans.

Speed samples: the host's CPU speed drifts by a factor of up to two within
seconds (other tenants share the cores), which no number of repetitions
averages out of a multi-second operation.  So from its first line the child
runs a fixed stdlib kernel every SPEED_PERIOD_S on SIGALRM and records when it
ended and how long it took; run.py turns those samples into a clock that
reads reference-speed seconds.  The kernel costs about 1 % of the run.

Times are perf_counter_ns readings: CLOCK_MONOTONIC on Linux, one clock for
every process, so the parent's spawn time and the child's readings compare.
"""

import signal
import time

SPEED_PERIOD_S = 0.01
SPEED = []  # (end_ns, duration_ns) of each kernel run


def _speed_kernel(signum, frame):
    # Small-int arithmetic only: it allocates no tracked objects, so it never
    # triggers or pays for a garbage collection of the operation's objects.
    start = time.perf_counter_ns()
    x = 1
    for _ in range(400):
        x = (x * 1103515245 + 12345) % 2147483648
    end = time.perf_counter_ns()
    SPEED.append((end, end - start))


signal.signal(signal.SIGALRM, _speed_kernel)
signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)

import contextlib  # noqa: E402  (the speed sampler must start first)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import cvtk.cli  # noqa: E402
from cvtk.golden import default_fixtures  # noqa: E402

default_fixtures()
READY_NS = time.perf_counter_ns()


def fields(n: int) -> str:
    """The number-field path for one n, without the X model, as canonical JSON.

    Module attributes are looked up at call time so that traced runs see the
    wrapped functions.
    """
    from cvtk import intersect, numfield, trace

    loci = []
    for locus in intersect.intersection_loci(n):
        locus.x_squared = intersect.x_squared_at(locus)
        factors = intersect.meridian_min_poly(locus)
        verdicts = [numfield.integrality_verdict(f) for f in factors]
        tau, min_poly, verdict = trace.longitude_trace(locus)
        loci.append({
            "modulus": locus.modulus.to_json(),
            "x_squared": locus.x_squared.to_json(),
            "meridian_factors": [f.to_json() for f in factors],
            "meridian_verdicts": [v.to_json() for v in verdicts],
            "longitude": {
                "element": tau.to_json(),
                "min_poly": min_poly.to_json(),
                "verdict": verdict.to_json(),
            },
        })
    return json.dumps({"n": n, "loci": loci}, sort_keys=True, indent=2)


def run(spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        from tracer import Tracer  # beside this file, so on sys.path

        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    code, error = 0, None
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out):
            if spec["kind"] == "cli":
                code = cvtk.cli.main(spec["args"])
            elif spec["kind"] == "fields":
                print(fields(int(spec["args"][0])))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:
        code, error = 1, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter_ns()
    signal.setitimer(signal.ITIMER_REAL, 0)
    record = {
        "ready_ns": READY_NS,
        "start_ns": start,
        "end_ns": end,
        "exit": code,
        "error": error,
        "stdout": out.getvalue(),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "speed": SPEED,
    }
    if tracer is not None:
        record["spans"] = tracer.spans
        record["sizes"] = tracer.sizes
    return record


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
