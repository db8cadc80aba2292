"""The benchmark's tracer must find and restore every name it wraps.

``perfbench/spans.py`` rebinds qtperm functions and methods by name; a
rename in qtperm breaks only a traced benchmark run, which tier-1 does not
make. Entering and leaving a ``Tracer`` here catches that in a fraction of
a second.
"""

import importlib.util
import sys
from pathlib import Path

# every module the tracer patches, imported before the bindings are read
from qtperm import (analysis, cli, constructions, genfile,  # noqa: F401
                    group, perm, report, verifier)
from qtperm.group import PermGroup
from qtperm.perm import Permutation

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    found = {}
    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "qtperm":
            found.update({(name, attr): value
                          for attr, value in vars(module).items()})
    for cls in (Permutation, PermGroup):
        found.update({(cls.__name__, attr): value
                      for attr, value in vars(cls).items()})
    return found


def test_tracer_wraps_and_restores_every_binding():
    spans = _load_spans()
    before = _bindings()
    with spans.Tracer():
        during = _bindings()
    wrapped = {key for key, value in during.items() if before[key] is not value}
    assert ("qtperm.analysis", "analyze") in wrapped
    assert ("qtperm.verifier", "quasi_verdict") in wrapped
    assert ("qtperm.analysis", "is_faithful_on") in wrapped
    # the catalog's construction cost is read from these two spans
    assert ("qtperm.constructions", "coset_action") in wrapped
    assert ("qtperm.constructions", "dihedral_2q_plus_2_subgroup") in wrapped
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _faithful_spans(run):
    spans = _load_spans()
    with spans.Tracer() as tracer:
        run()
    return sum(1 for span in tracer.spans
               if span[0] == "analysis.is_faithful_on")


def test_diagonality_checks_are_traced_as_faithfulness(tmp_path, capsys):
    # the sweep and ``construct sum`` reach is_faithful_on through the
    # analysis binding, so their diagonality checks count in its span
    entry = next(e for e in verifier.default_catalog(
        verifier.SweepConfig(families=("psl",))) if e.name == "PSL2(8)")
    assert _faithful_spans(
        lambda: verifier.orbital_table(entry, (0, 1, 2))) == 3
    path = tmp_path / "f5.gens"
    path.write_text("degree 5\n(1 2 3 4 5)\n(2 3 5 4)\n")
    assert _faithful_spans(
        lambda: cli.main(["construct", "sum", str(path), str(path)])) == 2
    assert capsys.readouterr().out.startswith("degree 10\n")


def test_traced_regular_action_counts_its_chain_and_elements():
    # the tracer reads StabilizerChain.transversal_sizes, which no qtperm
    # code calls, and counts the elements that PermGroup.elements yields
    spans = _load_spans()
    with spans.Tracer() as tracer:
        constructions.regular_action(constructions.symmetric_group(4))
    metrics = tracer.layer_metrics()
    assert metrics["group.build_chain.transversal_points"] == 9
    assert metrics["group.elements.yielded"] == 24
