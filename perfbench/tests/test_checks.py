"""Failed-operation accounting of the output checks, on synthetic outputs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads


def _sweep_doc(name):
    want = workloads._expected()[name]
    items = [{"label": label, "status": status, "t": t}
             for label, status, t in want["items"]]
    return {"schema_version": "1", "kind": "sweep", "tested": want["tested"],
            "skipped": want["skipped"], "items": items, "findings": [],
            "lemma_violations": []}


def _check(doc, status=0):
    return workloads.check_sweep(
        "sweep-q32", [workloads.Op(status, json.dumps(doc))])


def test_expected_sweep_output_passes():
    assert _check(_sweep_doc("sweep-q32")) == (23, 0)


def test_one_changed_verdict_fails_one_operation():
    doc = _sweep_doc("sweep-q32")
    doc["items"][5]["status"] = "quasi_transitive"
    assert _check(doc) == (23, 1)


def test_bad_exit_status_wrong_counts_or_schema_fail_everything():
    assert _check(_sweep_doc("sweep-q32"), status=1) == (23, 23)
    doc = _sweep_doc("sweep-q32")
    doc["skipped"] += 1
    assert _check(doc) == (23, 23)
    doc = _sweep_doc("sweep-q32")
    del doc["lemma_violations"]
    assert _check(doc) == (23, 23)


def test_a_crash_fails_every_operation():
    op = workloads.Op(None, "", "RuntimeError: boom")
    assert workloads.check_sweep("sweep-triples", [op]) == (441, 441)


def test_run_without_the_source_tree_fails_without_a_result(tmp_path):
    bench = Path(workloads.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "sweep-q32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
