"""Run one qtperm benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-triples --seed 1 --seconds 40 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``sweep-triples``: ``qtperm verify --triples`` on the default catalog.
* ``sweep-q32``: ``sweep()`` of the psl family with PSL2(32) and triples,
  then ``sweep_document``.
* ``analyze-q32``: ``qtperm analyze`` on PSL2(32) and PGammaL2(32) acting on
  496 cosets, written as generator files under a labelling drawn from
  ``--seed``. The sweeps take no input, so their seed changes nothing.

Every sample is a fresh interpreter (``child.py``), started one after
another from this single process, so ``setup_s`` (interpreter start to the
first timed call) and ``peak_rss_mb`` describe one process each. Samples are
started until the next one would end after ``--seconds``, with at least
``MIN_CHILDREN`` of them; each reported metric is the median over samples.

With ``--trace 0`` the end-to-end metrics are printed. With ``--trace 1``
pairs of an untraced and a traced sample run on the same inputs until
``--seconds`` is spent (at least one pair); the traced one wraps qtperm's
public functions (``spans.py``). Each per-layer metric is the lower median
over the traced samples, so exact counts stay whole numbers, and
``trace.overhead_s`` is the median over pairs of traced minus untraced
``wall_s``; the text output says whether its sign is resolved. Metric names
and units are those of ``BENCHMARK.json``. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Exit status 1 means the run could not be made (for instance
the source tree is missing), and then no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_CHILDREN = 2
DEADLINE_S = 170.0  # a run must end within 180 s

MIN_OVERHEAD_PAIRS = 3  # fewer pairwise differences cannot resolve a sign


class RunError(Exception):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, index: int, trace: int, workdir: Path,
          deadline: float) -> dict:
    """Run one fresh interpreter to completion and return its result."""
    remaining = deadline - _now()
    if remaining <= 0:
        raise RunError("out of time before the next sample")
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--index", str(index),
           "--trace", str(trace), "--workdir", str(workdir)]
    spawned_at = _now()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunError(f"sample exceeded the {DEADLINE_S:.0f} s deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"sample exited with status {proc.returncode}:\n"
                       f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def measure(workload: str, seed: int, seconds: int, workdir: Path,
            deadline: float) -> list[dict]:
    """Untraced samples, each on its own inputs, until ``seconds`` is spent."""
    children: list[dict] = []
    started = _now()
    while True:
        children.append(spawn(workload, seed, len(children), 0, workdir,
                              deadline))
        elapsed = _now() - started
        if len(children) >= MIN_CHILDREN and \
                elapsed * (len(children) + 1) / len(children) > seconds:
            break
    return children


def measure_traced(workload: str, seed: int, seconds: int, workdir: Path,
                   deadline: float) -> list[tuple[dict, dict]]:
    """(untraced, traced) pairs on the same inputs until ``seconds`` is spent."""
    pairs: list[tuple[dict, dict]] = []
    started = _now()
    while True:
        pairs.append(tuple(spawn(workload, seed, 0, trace, workdir, deadline)
                           for trace in (0, 1)))
        elapsed = _now() - started
        if elapsed * (len(pairs) + 1) / len(pairs) > seconds:
            break
    return pairs


def layer_metrics(pairs: list[tuple[dict, dict]],
                  overheads: list[float]) -> dict[str, float]:
    traced = [t["layers"] for _, t in pairs]
    layers = {name: statistics.median_low(t[name] for t in traced)
              for name in traced[0]}
    layers["trace.overhead_s"] = statistics.median(overheads)
    return layers


def _terminate(signum, frame):
    # unwinding through subprocess.run kills and reaps the running sample
    raise SystemExit(1)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qtperm" / "__init__.py").is_file():
        print("perfbench: no qtperm source tree at src/qtperm", file=sys.stderr)
        return 1
    units = metric_units("per_layer" if args.trace else "end_to_end")
    deadline = _now() + DEADLINE_S
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=work_root) as workdir:
            if args.trace:
                pairs = measure_traced(args.workload, args.seed, args.seconds,
                                       Path(workdir), deadline)
                children = [c for pair in pairs for c in pair]
                overheads = [t["wall_s"] - u["wall_s"] for u, t in pairs]
                layers = layer_metrics(pairs, overheads)
                if set(layers) != set(units):
                    raise RunError(
                        "traced metrics differ from BENCHMARK.json per_layer: "
                        f"{sorted(set(layers) ^ set(units))}")
            else:
                children = measure(args.workload, args.seed, args.seconds,
                                   Path(workdir), deadline)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    errors = [e for c in children for e in c["errors"]]
    if args.workload != "analyze-q32" or args.trace:
        # same inputs in every sample, so the outputs must agree byte for byte
        digests = {c["digest"] for c in children}
        if len(digests) > 1:
            errors.append("outputs differ between samples: "
                          f"{len(digests)} distinct digests")
            failed += children[-1]["attempted"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"samples {len(children)}")
    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in sorted(units.items())}
        for name, metric in metrics.items():
            print(f"  {name:48s} {metric['value']:>14.6g} {metric['unit']}")
        low, high = min(overheads), max(overheads)
        resolved = len(overheads) >= MIN_OVERHEAD_PAIRS and (
            low > 0 or high < 0)
        print(f"  tracing overhead {'resolved' if resolved else 'unresolved'}:"
              f" n={len(overheads)} pairs, traced - untraced wall_s from"
              f" {low:+.3f} to {high:+.3f} s")
    else:
        metrics = {}
        for name, unit in units.items():
            values = [c[name] for c in children]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(f"  {name:12s} median {metrics[name]['value']:12.4f} {unit:4s}"
                  f" (n={len(values)}, min {min(values):.4f},"
                  f" max {max(values):.4f})")
    print(f"  failed_frac  {failed / attempted if attempted else 1.0:.4f} ratio"
          f" ({failed} failed of {attempted} attempted)")
    for error in errors:
        print(f"  error: {error}")
    print(json.dumps({"correct": failed == 0 and not errors,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
