"""Two traced runs per workload: exact counts repeat, outputs match untraced,
and the metrics emitted are exactly the ``per_layer`` ones of BENCHMARK.json.

Each ``run.py --trace 1`` makes an untraced and a traced sample on the same
inputs and marks the run incorrect if their outputs differ. This module
takes several minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "run.py"
SPEC = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())

EXACT_UNITS = ("count", "bytes", "ratio")


def traced(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", "1"],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=180,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload, expected", [
    ("sweep-triples", {"analysis.quasi_verdict.calls": 441,
                       "constructions.disjoint_sum.calls": 441}),
    ("sweep-q32", {"analysis.quasi_verdict.calls": 23,
                   "constructions.disjoint_sum.calls": 23}),
    ("analyze-q32", {"analysis.analyze.calls": 2,
                     "constructions.disjoint_sum.calls": 0}),
])
def test_exact_counts_repeat_across_traced_runs(workload, expected):
    first, second = traced(workload), traced(workload)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} \
            == units
    exact = {name: m["value"] for name, m in first["metrics"].items()
             if m["unit"] in EXACT_UNITS}
    assert exact == {name: second["metrics"][name]["value"] for name in exact}
    for name, value in expected.items():
        assert exact[name] == value, name
