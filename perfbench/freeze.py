"""Write ``expected.json``: the outputs every benchmark run is checked against.

The file was frozen once from the commit that introduced the benchmark and
must not be regenerated to make a run pass. Run from the repository root:

    PYTHONPATH=src python3 perfbench/freeze.py
"""

from __future__ import annotations

import json
from pathlib import Path


def main() -> None:
    from qtperm import analysis, report, verifier
    from qtperm.verifier import SweepConfig

    import workloads

    expected = {}
    for name, config in (
            ("sweep-triples", SweepConfig(include_triples=True)),
            ("sweep-q32", workloads.sweep_q32_config())):
        result = verifier.sweep(config)
        expected[name] = {
            "tested": result.tested,
            "skipped": result.skipped,
            "findings": len(result.findings),
            "items": [[it.label, it.status, it.t] for it in result.items],
        }
    expected["analyze-q32"] = [
        workloads.action_invariants(json.loads(json.dumps(
            report.action_report_document(analysis.analyze(action.group)))))
        for action in workloads.q32_actions()
    ]
    path = Path(__file__).resolve().parent / "expected.json"
    path.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
