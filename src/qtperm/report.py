"""JSON report documents with a stable, versioned schema.

A document's keys are its dataclass's fields, in field order: each record
is read from ``vars(record)``, and only the values whose form changes are
written out. The action report's top level names its keys, as its
``orbit_reports`` are ``orbits``; ``label``, the one optional key, comes
last. Points are 1-based in documents; the engine is 0-based throughout.
The schemas follow from the same fields' annotations and are built on
first use; ``_FORMS`` holds the few properties whose document form differs.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

from .analysis import (CONSTANT_ONE, NON_CONSTANT, QUASI_TRANSITIVE,
                       ActionReport, QuasiVerdict)
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


# the document forms that differ from what a field's annotation gives
_POSITIVE = {"type": "integer", "minimum": 1}
_FORMS = {
    ActionReport: {"degree": _POSITIVE, "order": _POSITIVE},
    QuasiVerdict: {
        "status": {"enum": [QUASI_TRANSITIVE, CONSTANT_ONE, NON_CONSTANT]},
        "witnesses": {"type": ["array", "null"],  # point pairs
                      "items": {"type": "array", "items": {"type": "integer"}}},
    },
}
_KEYS = {"orbit_reports": "orbits"}
_JSON_TYPES = {int: "integer", bool: "boolean", str: "string"}


def _schema(hint) -> dict:
    """The schema of a value annotated ``hint``."""
    args = get_args(hint)
    if type(None) in args:  # X | None
        (inner,) = set(args) - {type(None)}
        schema = _schema(inner)
        return {**schema, "type": [schema["type"], "null"]}
    if get_origin(hint) in (tuple, list, set, frozenset):
        return {"type": "array", "items": _schema(args[0])}
    if is_dataclass(hint):
        return _object(hint)
    return {"type": _JSON_TYPES[hint]}


def _object(cls, head=(), optional=()) -> dict:
    """The schema of ``cls``'s records: ``head``, then its fields, all
    required in that order, then the ``optional`` properties."""
    forms = _FORMS.get(cls, {})
    hints = get_type_hints(cls)
    properties = dict(head)
    for f in fields(cls):
        properties[_KEYS.get(f.name, f.name)] = (
            forms.get(f.name) or _schema(hints[f.name]))
    required = list(properties)
    properties.update(optional)
    return {"type": "object", "properties": properties, "required": required}


_DOCUMENTS = {
    "ACTION_REPORT_SCHEMA": (ActionReport, "action_report"),
    "SWEEP_SCHEMA": (SweepResult, "sweep"),
    "STEP4_SCHEMA": (Step4Record, "step4"),
}


def __getattr__(name: str) -> dict:
    # Each schema is built on first access and then kept as a module global.
    # get_type_hints over the eight record classes costs about 0.6 ms, the
    # benchmark imports this module inside its timed calls, and no command
    # reads a schema.
    if name not in _DOCUMENTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    cls, kind = _DOCUMENTS[name]
    head = {"schema_version": {"const": SCHEMA_VERSION},
            "kind": {"const": kind}}
    optional = {"label": {"type": "string"}} if cls is ActionReport else {}
    globals()[name] = schema = _object(cls, head, optional)
    return schema
