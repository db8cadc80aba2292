"""JSON report documents with a stable, versioned schema.

A document's keys are its dataclass's fields, in field order: each record
is read from ``vars(record)``, and only the values whose form changes are
written out. The action report's top level names its keys, as its
``orbit_reports`` are ``orbits``; ``label``, the one optional key, comes
last. Points are 1-based in documents; the engine is 0-based throughout.
"""

from __future__ import annotations

from .analysis import ActionReport
from .verifier import Step4Record, SweepResult

SCHEMA_VERSION = "1"


def _pair(pair):
    return [pair[0] + 1, pair[1] + 1]


def action_report_document(report: ActionReport, label: str | None = None) -> dict:
    verdict = report.verdict
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "action_report",
        "degree": report.degree,
        "order": report.order,
        "orbits": [
            {
                **vars(rep),
                "points": [p + 1 for p in rep.points],
                "representative": rep.representative + 1,
                "subdegrees": list(rep.subdegrees),
            }
            for rep in report.orbit_reports
        ],
        "pair_classes": [
            {**vars(c), "representative": _pair(c.representative)}
            for c in report.pair_classes
        ],
        "verdict": {
            **vars(verdict),
            "witnesses": [_pair(w.representative) for w in verdict.witnesses]
            if verdict.witnesses else None,
        },
    }
    if label is not None:
        doc["label"] = label
    return doc


def sweep_document(result: SweepResult) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "kind": "sweep", **vars(result)}
    for key, value in doc.items():
        if isinstance(value, list):  # of records
            # dict(vars(r)) would keep the larger table of an instance dict
            doc[key] = [dict(vars(record).items()) for record in value]
    return doc


def step4_document(record: Step4Record) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "step4",
        **vars(record),
        "quadratic_roots": sorted(record.quadratic_roots),
    }


def _object(properties: dict, optional=()) -> dict:
    """An object schema that requires every property but the ``optional``."""
    return {
        "type": "object",
        "properties": properties,
        "required": [key for key in properties if key not in optional],
    }


ACTION_REPORT_SCHEMA = _object({
    "schema_version": {"const": SCHEMA_VERSION},
    "kind": {"const": "action_report"},
    "degree": {"type": "integer", "minimum": 1},
    "order": {"type": "integer", "minimum": 1},
    "label": {"type": "string"},
    "orbits": {
        "type": "array",
        "items": _object({
            "points": {"type": "array", "items": {"type": "integer"}},
            "representative": {"type": "integer"},
            "size": {"type": "integer"},
            "subdegrees": {"type": "array", "items": {"type": "integer"}},
            "faithful": {"type": "boolean"},
            "transitive": {"type": "boolean"},
            "two_transitive": {"type": "boolean"},
            "three_halves": {"type": "boolean"},
            "frobenius": {"type": "boolean"},
            "primitive": {"type": "boolean"},
        }),
    },
    "pair_classes": {
        "type": "array",
        "items": _object({
            "representative": {"type": "array", "items": {"type": "integer"}},
            "size": {"type": "integer"},
            "stabilizer_order": {"type": "integer"},
            "abelian": {"type": "boolean"},
        }),
    },
    "verdict": _object({
        "status": {"enum": ["quasi_transitive", "constant_one", "non_constant"]},
        "t": {"type": ["integer", "null"]},
        "witnesses": {
            "type": ["array", "null"],
            "items": {"type": "array", "items": {"type": "integer"}},
        },
    }),
}, optional=("label",))

_SWEEP_ITEMS = {
    "type": "array",
    "items": _object({
        "label": {"type": "string"},
        "status": {"type": "string"},
        "t": {"type": ["integer", "null"]},
    }),
}

SWEEP_SCHEMA = _object({
    "schema_version": {"const": SCHEMA_VERSION},
    "kind": {"const": "sweep"},
    "tested": {"type": "integer"},
    "skipped": {"type": "integer"},
    "items": _SWEEP_ITEMS,
    "findings": _SWEEP_ITEMS,
    "lemma_violations": {
        "type": "array",
        "items": _object({
            "rule": {"type": "string"},
            "detail": {"type": "string"},
        }),
    },
})

STEP4_SCHEMA = _object({
    "schema_version": {"const": SCHEMA_VERSION},
    "kind": {"const": "step4"},
    "d1": {"type": "integer"},
    "orbit1_size": {"type": "integer"},
    "product": {"type": "integer"},
    "quadratic_roots": {"type": "array", "items": {"type": "integer"}},
    "orbit2_size": {"type": "integer"},
    "d2": {"type": "integer"},
    "gcd": {"type": "integer"},
    "contradiction": {"type": "boolean"},
})
