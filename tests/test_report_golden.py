"""sha256 of the JSON documents of `analyze` and the sweep.

Every verdict and report must stay bit-identical while the engine changes;
these digests pin the documents that `qtperm analyze` and `qtperm verify`
print (the CLI adds a label to the report and a final newline), the
stdout of `qtperm verify --only step4` and the three schemas.
"""

import hashlib
import json

import pytest

from test_analysis import _with_fixed_points
from qtperm import cli
from qtperm.analysis import analyze
from qtperm.constructions import (action_on_k_subsets, affine_frobenius,
                                  cyclic_group, disjoint_sum, pgammal2_cosets,
                                  psl2_cosets, regular_action, symmetric_group)
from qtperm.report import (ACTION_REPORT_SCHEMA, STEP4_SCHEMA, SWEEP_SCHEMA,
                           action_report_document, sweep_document)
from qtperm.verifier import (LemmaViolation, SweepConfig, SweepItem,
                             SweepResult, sweep)


def _digest(doc):
    return hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()


REPORT_DIGESTS = {
    psl2_cosets:
        "d357fba50665c295fd03caa9bd3e624e73135a3c8a13f545e41a41d774c694e2",
    pgammal2_cosets:
        "22df097751fdb6f874ca0eb54bd4ce04c74a7ce80ba5516b1e7505f93d400147",
}

# intransitive groups, whose reports combine several orbits
MULTI_ORBIT_DIGESTS = {
    "S4-pairs+S4": (
        lambda: disjoint_sum([action_on_k_subsets(symmetric_group(4), 2),
                              symmetric_group(4)]).group,
        "5acd1a41bc2b97da4f72bf17aa3058749a40bc15e645a067bb09c4a1c231036a"),
    "AGL(1,5)+regular": (
        lambda: disjoint_sum([affine_frobenius(5),
                              regular_action(affine_frobenius(5))]).group,
        "41f39179f4e44919c7c3b4007f8d4aa9d1bcb61c768cd2f1674b0e790794c4bf"),
    "C3+C4": (
        lambda: disjoint_sum([cyclic_group(3), cyclic_group(4)]).group,
        "960fbdb03db5b6a221c4605cd3c4920273112e1694e4959c54f29437d1b078bd"),
    "fixed-points": (
        _with_fixed_points,
        "c320fafc38fd9084059030b72a895dbdec49739a0e8a3bf0ae6a426246763b2f"),
}

SWEEP_DIGESTS = {
    "default":
        "0a33af5057ed7c2bec5749bc551ea94ad222ca93be0b6a7f85c49d1f2eda5dab",
    "triples":
        "965eceb67c11b2b80f056984d489b8a517dd15bc3a802109c11188298bc08645",
    "q32":
        "c946cf424dbf26233f3e7d15dd929a3ad9cc36ead3f657ccf8af89d068db8bcf",
}

SWEEP_CONFIGS = {
    "default": SweepConfig(),
    "triples": SweepConfig(include_triples=True),
    "q32": SweepConfig(include_triples=True, include_q32=True),
}


@pytest.mark.parametrize("build", list(REPORT_DIGESTS),
                         ids=lambda build: f"{build.__name__}(5)")
def test_action_report_golden_digest(build):
    doc = action_report_document(analyze(build(5).group))
    assert _digest(doc) == REPORT_DIGESTS[build]


@pytest.mark.parametrize("name", list(MULTI_ORBIT_DIGESTS))
def test_multi_orbit_report_golden_digest(name):
    build, digest = MULTI_ORBIT_DIGESTS[name]
    assert _digest(action_report_document(analyze(build()))) == digest


@pytest.mark.parametrize("name", list(SWEEP_DIGESTS))
def test_sweep_golden_digest(name):
    doc = sweep_document(sweep(SWEEP_CONFIGS[name]))
    assert _digest(doc) == SWEEP_DIGESTS[name]


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_step4_stdout_golden_digest(capsys):
    assert cli.main(["verify", "--only", "step4"]) == 0
    assert _sha(capsys.readouterr().out) == (
        "3934a8fc87897c8efa3cf6103c763973101be1e5ebb870b6c53be2837a9539a2")


def test_labelled_report_golden_digest():
    # a non_constant verdict, so the witnesses are written too
    group = disjoint_sum([cyclic_group(3), cyclic_group(4)]).group
    doc = action_report_document(analyze(group), label="C3+C4")
    assert list(doc)[-1] == "label"
    assert _digest(doc) == (
        "2dae41e3f6bc4bfe5b33ff917243e5cd82ade3c9a62f43615fa71e15ab4aa312")


def test_sweep_with_a_finding_golden_digest():
    items = [SweepItem("A+B", "constant_one", 1),
             SweepItem("C+D", "quasi_transitive", None)]
    result = SweepResult(
        tested=2, skipped=3, items=items, findings=items[1:],
        lemma_violations=[LemmaViolation("coprime", "C+D: gcd(4, 6) = 2")])
    assert _digest(sweep_document(result)) == (
        "a36b61c192c0ce12d472c8df5ab1d7b43ab7de262bad4c67a5a55f7c170d3ede")


# json.dumps(schema, sort_keys=True): the schemas, whatever their key order
SCHEMA_DIGESTS = {
    "action_report": (
        ACTION_REPORT_SCHEMA,
        "40a662b5b292881bd8ced057b0f31d4f4dc45ad33c81f2805987b5b2f637c4e7"),
    "sweep": (
        SWEEP_SCHEMA,
        "3ffcacc233cb0669da03e8666e4aaa677d99f5d158fa4fdf9b44e0647044de61"),
    "step4": (
        STEP4_SCHEMA,
        "98ce9ad68d89e8525efcbcf4ed0a9ffa7a641180e6c158d4ef67f4af0107ef45"),
}


@pytest.mark.parametrize("name", list(SCHEMA_DIGESTS))
def test_schema_golden_digest(name):
    schema, digest = SCHEMA_DIGESTS[name]
    assert _sha(json.dumps(schema, sort_keys=True)) == digest
