"""One fresh-interpreter sample of a workload; prints one JSON line.

``run.py`` starts this file once per sample, so that set-up time and peak
memory belong to one process that did nothing else. The child builds the
inputs, times the operation, and only after the timed call reads its peak
memory and checks the outputs (the sympy cross-check imports a large
package that must not count towards memory or time).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402  (perfbench/ is sys.path[0])
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True,
                        help="number of this sample within its run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before start")
    args = parser.parse_args(argv)

    tracer = spans.Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        item = workloads.prepare(args.workload, args.seed, args.index,
                                 Path(args.workdir))
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
        cpu0, wall0 = time.process_time(), time.perf_counter()
        ops = workloads.run(item)
        wall_s = time.perf_counter() - wall0
        cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed = workloads.check(item, ops)
    texts = [op.text.encode("utf-8") for op in ops]
    result = {
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb, "attempted": attempted, "failed": failed,
        "digest": hashlib.sha256(b"\0".join(texts)).hexdigest(),
        "errors": [op.error for op in ops if op.error],
    }
    if tracer is not None:
        tracer.counts["report.json_bytes"] = sum(map(len, texts))
        result["layers"] = tracer.layer_metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
