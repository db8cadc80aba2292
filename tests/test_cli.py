import hashlib
import json
import re

import jsonschema
import pytest

from qtperm.cli import main
from qtperm.report import (ACTION_REPORT_SCHEMA, STEP4_SCHEMA, SWEEP_SCHEMA,
                           action_report_document, step4_document,
                           sweep_document)
from qtperm.analysis import analyze
from qtperm.constructions import symmetric_group
from qtperm.verifier import (SweepConfig, SweepResult, default_catalog,
                             step4_check, sweep)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_then_analyze(tmp_path, capsys):
    code, out, _ = run(capsys, "construct", "a7-pairs")
    assert code == 0
    path = tmp_path / "a7p.gens"
    path.write_text(out)
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, ACTION_REPORT_SCHEMA)
    assert doc["degree"] == 21
    assert doc["order"] == 2520
    assert doc["verdict"] == {"status": "quasi_transitive", "t": 12,
                              "witnesses": None}


def test_analyze_require_quasi_failure(tmp_path, capsys):
    path = tmp_path / "c4.gens"
    path.write_text("degree 4\n(1 2 3 4)\n")
    code, out, _ = run(capsys, "analyze", str(path), "--require-quasi")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"]["status"] == "constant_one"


def test_analyze_verbose_summary(tmp_path, capsys):
    path = tmp_path / "c4.gens"
    path.write_text("degree 4\n(1 2 3 4)\n")
    code, out, err = run(capsys, "analyze", str(path), "--verbose")
    assert code == 0
    assert "degree 4" in err and "order 4" in err


def test_analyze_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.gens"
    path.write_text("degree 3\n(1 2)(1 3)\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "repeated" in err


def test_analyze_names_a_repeated_image_one_based(tmp_path, capsys):
    path = tmp_path / "bad.gens"
    path.write_text("degree 3\n[1, 1, 3]\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err == ("qtperm: ParseError: line 2: "
                   "point 1 repeated in the image list\n")


def test_analyze_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/file.gens")
    assert code == 2
    assert err


@pytest.mark.parametrize("command", ["analyze", "construct regular",
                                     "construct sum"])
def test_unreadable_path_exit_2(tmp_path, capsys, command):
    # a directory is not a readable file; construct sum reads two paths
    paths = [str(tmp_path)] * (2 if command.endswith("sum") else 1)
    code, out, err = run(capsys, *command.split(), *paths)
    assert code == 2
    assert out == ""
    assert err.startswith("qtperm: IsADirectoryError: ")


def test_unknown_subcommand_exit_2(capsys):
    code, _, _ = run(capsys, "bogus")
    assert code == 2


def test_construct_psl2_cosets(capsys):
    code, out, _ = run(capsys, "construct", "psl2", "--f", "3",
                       "--action", "cosets")
    assert code == 0
    assert out.startswith("degree 28\n")


def test_construct_help_lists_the_shipped_field_exponents(capsys):
    code, out, _ = run(capsys, "construct", "--help")
    assert code == 0
    assert "field exponent for psl2/pgammal2, one of 2, 3, 4, 5, 6, 7" \
        in " ".join(out.split())
    for f in ("1", "8"):
        code, _, err = run(capsys, "construct", "psl2", "--f", f)
        assert code == 2
        assert "shipped: 2, 3, 4, 5, 6, 7" in err


def test_construct_sum_pipeline(tmp_path, capsys):
    code, f5, _ = run(capsys, "construct", "frobenius", "--p", "5")
    assert code == 0
    path = tmp_path / "f5.gens"
    path.write_text(f5)
    code, out, _ = run(capsys, "construct", "sum", str(path), str(path))
    assert code == 0
    assert out.startswith("degree 10\n")
    both = tmp_path / "sum.gens"
    both.write_text(out)
    code, out, _ = run(capsys, "analyze", str(both))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["orbits"]) == 2


@pytest.mark.parametrize("name", ["a7-pairs", "s7-pairs", "psl2",
                                  "pgammal2", "frobenius"])
def test_construct_of_a_named_action_takes_no_input_files(name, capsys):
    code, out, err = run(capsys, "construct", name, "nonexistent.gens")
    assert (code, out) == (2, "")
    assert err == f"qtperm: construct {name} takes no input files\n"


def test_construct_s7_pairs(capsys):
    code, out, _ = run(capsys, "construct", "s7-pairs")
    assert code == 0
    assert out.startswith("degree 21\n")


def test_construct_regular_needs_exactly_one_file(tmp_path, capsys):
    paths = []
    for name in ("a.gens", "b.gens"):
        paths.append(tmp_path / name)
        paths[-1].write_text("degree 3\n(1 2 3)\n")
    code, out, err = run(capsys, "construct", "regular", *map(str, paths))
    assert (code, out) == (2, "")
    assert err == "qtperm: construct regular needs exactly one input file\n"


def test_construct_sum_needs_two_files(capsys):
    code, _, err = run(capsys, "construct", "sum")
    assert code == 2
    assert "two input files" in err


def test_construct_sum_rejects_non_diagonal(tmp_path, capsys):
    # two generating sets of AGL(1,5), paired shift-with-shift but x2 with
    # x3, generate a subdirect product of order 100; S3 by a transposition
    # and a 3-cycle, paired with its sign action on 2 points, is a sum of
    # order 6 over a summand of order 2, in either order
    texts = {"agl_a": "degree 5\n(1 2 3 4 5)\n(2 3 5 4)\n",
             "agl_b": "degree 5\n(1 2 3 4 5)\n(2 4 5 3)\n",
             "s3": "degree 3\n(1 2)\n(1 2 3)\n",
             "sign": "degree 2\n(1 2)\n()\n"}
    for name, text in texts.items():
        (tmp_path / f"{name}.gens").write_text(text)
    for pair in (("agl_a", "agl_b"), ("s3", "sign"), ("sign", "s3")):
        code, out, err = run(capsys, "construct", "sum",
                             *(str(tmp_path / f"{name}.gens") for name in pair))
        assert code == 2
        assert out == ""
        assert "not diagonal" in err


def test_construct_sum_of_a_diagonal_pair(tmp_path, capsys):
    # PSL2(8) on the projective line and on the 28 cosets of D18
    paths = []
    for action in ("projective", "cosets"):
        code, out, _ = run(capsys, "construct", "psl2", "--f", "3",
                           "--action", action)
        assert code == 0
        paths.append(tmp_path / f"{action}.gens")
        paths[-1].write_text(out)
    code, out, err = run(capsys, "construct", "sum", *map(str, paths))
    assert (code, err) == (0, "")
    assert out.startswith("degree 37\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "92043575cb56a691969c53e3edb8b65a2f4cbff1b1bff09c993b5e01899d344a")


def test_verify_step4(capsys):
    code, out, _ = run(capsys, "verify", "--only", "step4")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, STEP4_SCHEMA)
    assert doc["product"] == 210
    assert doc["gcd"] == 2
    assert doc["contradiction"] is True


def test_verify_restricted_sweep(capsys):
    code, out, err = run(capsys, "verify", "--max-degree", "20",
                         "--max-order", "100", "--verbose")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SWEEP_SCHEMA)
    assert doc["findings"] == []
    assert "finding(s)" in err


def test_verify_verbose_progress_per_entry(capsys):
    code, out, err = run(capsys, "verify", "--max-degree", "12",
                         "--max-order", "100", "--verbose")
    assert code == 0
    _, plain, _ = run(capsys, "verify", "--max-degree", "12",
                      "--max-order", "100")
    assert out == plain
    lines = err.splitlines()
    assert len(lines) == len(default_catalog()) + 1
    assert re.fullmatch(r"S3: tested 3, skipped 0, \d+\.\d{3}s", lines[0])
    assert re.fullmatch(r"S5: tested 0, skipped 6, \d+\.\d{3}s", lines[4])
    doc = json.loads(out)
    tested = sum(int(re.search(r"tested (\d+)", line).group(1))
                 for line in lines[:-1])
    assert tested == doc["tested"]


def test_verify_env_var_defaults(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QTPERM_MAX_DEGREE", "15")
    monkeypatch.setenv("QTPERM_MAX_ORDER", "50")
    code, out, _ = run(capsys, "verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["skipped"] > 0


@pytest.mark.parametrize("name", ["QTPERM_MAX_DEGREE", "QTPERM_MAX_ORDER"])
def test_bad_env_var_exit_2(capsys, monkeypatch, name):
    monkeypatch.setenv(name, "abc")
    code, out, err = run(capsys, "verify", "--only", "step4")
    assert code == 2
    assert out == ""
    assert f"bad value for {name}: 'abc'" in err


@pytest.mark.parametrize("name", ["QTPERM_MAX_DEGREE", "QTPERM_MAX_ORDER"])
def test_bad_env_var_leaves_other_commands_alone(tmp_path, capsys,
                                                 monkeypatch, name):
    monkeypatch.setenv(name, "abc")
    code, out, err = run(capsys, "construct", "psl2", "--f", "2")
    assert (code, err) == (0, "")
    path = tmp_path / "psl2.gens"
    path.write_text(out)
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["degree"] == 5
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "verify" in out


def test_report_documents_validate():
    report = analyze(symmetric_group(4).group)
    jsonschema.validate(action_report_document(report, label="S4"),
                        ACTION_REPORT_SCHEMA)
    jsonschema.validate(step4_document(step4_check()), STEP4_SCHEMA)
    result = sweep(SweepConfig(max_total_degree=12, families=("cyclic",)))
    jsonschema.validate(sweep_document(result), SWEEP_SCHEMA)


def test_sweep_schema_checks_each_finding():
    doc = sweep_document(SweepResult())
    doc["findings"] = [{"label": "A+B", "status": "quasi_transitive",
                        "t": None}]
    jsonschema.validate(doc, SWEEP_SCHEMA)
    doc["findings"] = [{"nonsense": 1}]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, SWEEP_SCHEMA)


def test_report_points_are_one_based():
    report = analyze(symmetric_group(3).group)
    doc = action_report_document(report)
    assert doc["orbits"][0]["points"] == [1, 2, 3]
    assert doc["pair_classes"][0]["representative"] == [1, 2]
