"""Run the benchmark on several seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workloads detect fields --seeds 1-10 \\
        --seconds 25 --trace 0 [--out perfbench/out/spread.json]

For each workload and metric it prints the median, the quartiles and the
spread (interquartile distance over the median, as
statistics.quantiles(values, n=4) gives them), and checks each end-to-end
spread against a third of its bound in BENCHMARK.json.  --out writes the
values and summaries as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values) -> dict:
    low, median, high = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": statistics.median(values),
        "q1": low,
        "q3": high,
        "spread": (high - low) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    result, steady = {}, True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            runs.append(json.loads(proc.stdout.rstrip("\n").rsplit("\n", 1)[-1]))
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summary([r["metrics"][name]["value"] for r in runs])
        result[workload] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        print(f"{workload}: correct {result[workload]['correct']}, "
              f"failed {result[workload]['failed']}")
        for name, s in metrics.items():
            flag = ""
            if name in bounds and name != "setup_s" and s["spread"] > bounds[name] / 3:
                flag, steady = "  above a third of its bound", False
            print(f"  {name:46} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.3f}{flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
