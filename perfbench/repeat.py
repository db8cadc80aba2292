"""Repeat ``run.py`` over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workload analyze-q32 --runs 10 --seconds 30

Runs are made one after another, with tracing off, with seeds
``--first-seed``, ``--first-seed + 1``, ... For every metric it prints the
median, the first and third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the distance between the quartiles as a share of the median. ``--out``
also writes the raw results as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=RUN.parent.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        print(f"seed {seed}: correct {result['correct']} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)

    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:48s} median {median:12.6g}  q1 {q1:12.6g}  "
              f"q3 {q3:12.6g}  spread {spread:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n",
                                  encoding="utf-8")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
