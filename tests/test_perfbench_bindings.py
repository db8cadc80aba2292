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
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
