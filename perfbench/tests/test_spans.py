"""Self time from the span tree, and the bindings a traced run must cover."""

import pytest

import spans


def test_self_time_subtracts_union_of_overlapping_children():
    tree = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),    # overlaps b on [3, 4]
        ("b", 3.0, 6.0, 0),
        ("c", 8.0, 12.0, 0),   # runs past its parent; only [8, 10] counts
        ("d", 1.5, 2.0, 1),    # grandchild: counted against a, not root
    ]
    got = spans.self_times(tree)
    assert got["root"] == pytest.approx(10.0 - (6.0 - 1.0) - (10.0 - 8.0))
    assert got["a"] == pytest.approx(3.0 - 0.5)
    assert got["b"] == pytest.approx(3.0)
    assert got["c"] == pytest.approx(4.0)
    assert got["d"] == pytest.approx(0.5)


def test_self_time_sums_spans_of_one_name():
    tree = [("f", 0.0, 2.0, None), ("g", 0.5, 1.0, 0), ("f", 3.0, 4.0, None)]
    assert spans.self_times(tree) == {"f": pytest.approx(2.5),
                                      "g": pytest.approx(0.5)}


# name-imported bindings that patching only the defining module would miss
REBOUND = [
    ("verifier", "analyze"), ("verifier", "quasi_verdict"),
    ("cli", "analyze"), ("cli", "sweep"), ("cli", "step4_check"),
    ("cli", "parse_generators"), ("cli", "group_from_file"),
    ("cli", "action_report_document"), ("cli", "sweep_document"),
    ("constructions", "build_chain"),
]


def test_tracer_wraps_every_binding_and_restores_them():
    import importlib
    modules = {name: importlib.import_module(f"qtperm.{name}")
               for name in {m for m, _ in REBOUND}}
    originals = {(m, a): getattr(modules[m], a) for m, a in REBOUND}
    with spans.Tracer():
        for (m, a), original in originals.items():
            assert getattr(modules[m], a) is not original, f"{m}.{a}"
    for (m, a), original in originals.items():
        assert getattr(modules[m], a) is original, f"{m}.{a}"


def test_tracer_counts_calls_through_imported_names():
    from qtperm import cli
    with spans.Tracer() as tracer:
        assert cli.main(["verify", "--only", "step4"]) == 0
    calls = tracer.span_calls()
    assert calls["cli.main"] == 1
    assert calls["verifier.step4_check"] == 1
