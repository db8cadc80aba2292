from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from counters import count_products
from oracles import (brute_core_free_subgroups, brute_elements,
                     brute_least_conjugate)
from qtperm import analysis, group, verifier
from qtperm.analysis import (QUASI_TRANSITIVE, QuasiVerdict, analyze,
                             quasi_verdict)
from qtperm.constructions import (LabeledAction, action_on_k_subsets,
                                  alternating_group, dihedral_group,
                                  disjoint_sum, psl2, symmetric_group)
from qtperm.group import PermGroup
from qtperm.perm import Permutation
from qtperm.verifier import (CatalogEntry, SweepConfig, default_catalog,
                             lemma_monitor, orbital_table, step1_quadratic,
                             step4_check, sweep)


def test_step1_goldens():
    # [DERIVED] 15*14 = 210 and t=1: x^2 - x - 210 = (x - 15)(x + 14)
    assert step1_quadratic(1, 210) == {15}
    # [DERIVED] t=1, |G| = 12: x^2 - x - 12 = (x - 4)(x + 3)
    assert step1_quadratic(1, 12) == {4}
    # no positive integer root
    assert step1_quadratic(1, 11) == set()
    assert step1_quadratic(3, 7) == set()


def test_step1_rejects_nonpositive():
    with pytest.raises(ValueError):
        step1_quadratic(0, 10)
    with pytest.raises(ValueError):
        step1_quadratic(2, 0)


@given(st.integers(min_value=1, max_value=50),
       st.integers(min_value=1, max_value=5000))
def test_step1_roots_actually_solve(t, order):
    roots = step1_quadratic(t, order)
    assert len(roots) <= 1
    for x in roots:
        assert t * x * x - t * x - order == 0
        assert x > 0


def test_step4_record():
    rec = step4_check()
    assert rec.d1 == 10
    assert rec.orbit1_size == 21
    assert rec.product == 210
    assert rec.quadratic_roots == frozenset({15})
    assert rec.orbit2_size == 15
    assert rec.d2 == 14
    assert rec.gcd == 2
    assert rec.contradiction is True


def test_lemma_monitor_silent_off_quasi():
    assert lemma_monitor(analyze(symmetric_group(4).group)) == []
    assert lemma_monitor(analyze(psl2(3).group)) == []


def test_lemma_monitor_silent_on_transitive_quasi():
    report = analyze(action_on_k_subsets(alternating_group(7), 2).group)
    assert report.verdict.status == QUASI_TRANSITIVE
    assert lemma_monitor(report) == []


def test_lemma_monitor_flags_synthetic_violation():
    # forge a quasi-transitive verdict onto a two-orbit report whose
    # subdegrees and orbit sizes break every rule at once
    G = action_on_k_subsets(symmetric_group(4), 2).group
    base = analyze(G)
    r = base.orbit_reports[0]
    orbit_a = replace(r, size=10, subdegrees=(1, 10), representative=0)
    orbit_b = replace(r, size=10, subdegrees=(1, 14, 4), representative=1,
                      faithful=False)
    forged = replace(base, orbit_reports=(orbit_a, orbit_b),
                     verdict=QuasiVerdict(QUASI_TRANSITIVE, t=2))
    rules = {v.rule for v in lemma_monitor(forged)}
    assert "constant-subdegree" in rules
    assert "faithful-orbits" in rules
    assert "coprime-subdegrees" in rules
    assert "distinct-orbit-sizes" in rules
    assert "order-identity" in rules
    # one OrbitReport held twice is two orbits, compared by position
    twice = replace(base, orbit_reports=(r, r),
                    verdict=QuasiVerdict(QUASI_TRANSITIVE, t=2))
    assert "distinct-orbit-sizes" in {v.rule for v in lemma_monitor(twice)}


def test_default_catalog_families():
    names = {e.name for e in default_catalog()}
    assert {"S4", "A7", "C6", "D5", "AGL(1,5)", "PSL2(8)",
            "PGammaL2(8)"} <= names
    cfg = SweepConfig(families=("cyclic",))
    assert all(e.name.startswith("C") for e in default_catalog(cfg))
    with pytest.raises(ValueError):
        default_catalog(SweepConfig(families=("nope",)))


def test_restricted_sweep_no_findings():
    cfg = SweepConfig(max_total_degree=40, max_group_order=500,
                      families=("cyclic", "dihedral", "affine"))
    result = sweep(cfg)
    assert result.tested > 0
    assert result.findings == []
    assert result.lemma_violations == []
    assert len(result.items) == result.tested


def test_sweep_guardrails_skip():
    cfg = SweepConfig(max_total_degree=5, max_group_order=10,
                      families=("symmetric",))
    result = sweep(cfg)
    assert result.skipped > 0


def test_sweep_triples():
    cfg = SweepConfig(max_total_degree=60, families=("affine",),
                      include_triples=True)
    result = sweep(cfg)
    # r=2 and r=3 sums of each family entry's actions
    assert result.tested > 0
    assert any(item.label.count("AGL") == 3 for item in result.items)
    assert result.findings == []


def _status(verdict):
    return verdict.status, verdict.t


def _explicit_status(entry, shape):
    summed = disjoint_sum([entry.actions[i] for i in shape])
    return summed.label, _status(quasi_verdict(summed.group))


def test_table_sweep_matches_explicit_sums():
    # every tested default pair sum, through the sweep
    config = SweepConfig()
    expected = sorted(
        (verifier.SweepItem(label, *status)
         for entry in default_catalog(config)
         for label, status in (
             _explicit_status(entry, shape)
             for shape in verifier._tested_shapes(entry, config)[0])),
        key=lambda it: it.label)
    assert sweep(config).items == expected


def test_table_matches_explicit_triples():
    config = SweepConfig(families=("affine", "psl"), include_triples=True)
    triples = 0
    for entry in default_catalog(config):
        if entry.name not in ("AGL(1,5)", "PGammaL2(8)"):
            continue
        shapes = verifier._tested_shapes(entry, config)[0]
        table = orbital_table(entry, sorted(set().union(*shapes)))
        for shape in shapes:
            label, status = _explicit_status(entry, shape)
            assert _status(table.verdict(shape)) == status, label
            triples += len(shape) == 3
    assert triples == 8


def test_table_within_sets_match_each_action():
    for entry in default_catalog():
        table = orbital_table(entry, range(len(entry.actions)))
        for i, action in enumerate(entry.actions):
            assert _status(table.verdict((i,))) == \
                _status(quasi_verdict(action.group)), action.label


def test_table_rejects_non_diagonal_entry():
    # two generating sets of AGL(1,5), paired shift-with-shift but x2 with
    # x3, generate a subdirect product of order 100
    shift = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
    actions = tuple(
        LabeledAction(PermGroup([shift, Permutation.from_cycles(5, [c])]),
                      f"AGL(1,5)-{k}", range(5))
        for k, c in enumerate(((1, 2, 4, 3), (1, 3, 4, 2))))
    with pytest.raises(AssertionError, match="two-AGL"):
        orbital_table(CatalogEntry("two-AGL", actions, 20), (0, 1))
    # S3 paired with its own sign action: the diagonal group has order 6,
    # and the stabilizer of a sign point is A3, whose image on the sign
    # action has order 1, not 3; in either order the entry is rejected
    s3 = symmetric_group(3)
    sign = LabeledAction(PermGroup([Permutation.from_cycles(2, [(0, 1)]),
                                    Permutation.identity(2)]),
                         "S3-sign", range(2))
    # the generators are a transposition and a 3-cycle, so the pairing by
    # position is the sign homomorphism
    assert [g.order() for g in s3.group.generators] == [2, 3]
    for pair in ((s3, sign), (sign, s3)):
        with pytest.raises(AssertionError, match="S3-quotient is not diagonal"):
            orbital_table(CatalogEntry("S3-quotient", pair, 6), (0, 1))


def _pair_class_cells(entry, indices):
    """The cells of ``orbital_table`` read from every pair class of the sum."""
    actions = [entry.actions[i] for i in indices]
    G = disjoint_sum(actions).group
    block_of = [i for i, a in zip(indices, actions) for _ in range(a.degree)]
    cells = {(i, j): set() for k, i in enumerate(indices) for j in indices[k:]}
    for a, b, _, order_ab in analysis._pair_classes(analysis._rows(G)):
        cells[block_of[a], block_of[b]].add(order_ab)
    return cells


def test_table_cells_match_the_pair_classes():
    for entry in default_catalog(SweepConfig(include_q32=True)):
        indices = tuple(range(len(entry.actions)))
        assert orbital_table(entry, indices).cells == \
            _pair_class_cells(entry, indices), entry.name


def test_catalog_orders_match_the_chains():
    for entry in default_catalog(SweepConfig(include_q32=True)):
        assert entry.order == entry.actions[0].group.order(), entry.name


def test_table_rejects_a_wrong_closed_form_order():
    entry = next(e for e in default_catalog(SweepConfig(families=("affine",)))
                 if e.name == "AGL(1,5)")
    with pytest.raises(AssertionError, match="has order 20, not 40"):
        orbital_table(replace(entry, order=40), (0, 1))


def test_order_guardrail_builds_no_chain(monkeypatch):
    built = []
    monkeypatch.setattr(group, "build_chain",
                        lambda *args, **kwargs: built.append(args))
    entry = CatalogEntry("S7", (symmetric_group(7),), 5040)
    config = SweepConfig(max_group_order=5039)
    assert verifier._tested_shapes(entry, config) == ([], 1)
    assert built == []


@pytest.mark.parametrize("family, name", [
    ("symmetric", "S4"), ("symmetric", "A5"), ("dihedral", "D6"),
    ("affine", "AGL(1,5)"), ("psl", "PSL2(8)"), ("psl", "PGammaL2(8)")])
def test_table_bounds_each_action_build_by_the_diagonal_order(
        monkeypatch, family, name):
    entry = next(e for e in default_catalog(SweepConfig(families=(family,)))
                 if e.name == name)
    build_chain = analysis.build_chain
    bounds = []

    def recording(*args, **kwargs):
        bounds.append(kwargs.get("_order"))
        return build_chain(*args, **kwargs)

    monkeypatch.setattr(analysis, "build_chain", recording)
    indices = tuple(range(len(entry.actions)))
    table = orbital_table(entry, indices)
    # each summand's image of G_a is built to stop at its row's |G_a|, and
    # a regular summand (|G_a| = 1) needs no build at all
    assert bounds == [table.stab_orders[i] for i in indices
                      if table.stab_orders[i] > 1]


def test_quasi_transitive_table_verdict_is_checked_by_analyze(monkeypatch):
    # forge a quasi-transitive table verdict: analyze on the explicit sum
    # must contradict it
    monkeypatch.setattr(verifier, "verdict_from_orders",
                        lambda orders: QuasiVerdict(QUASI_TRANSITIVE, t=2))
    with pytest.raises(AssertionError, match="disagree"):
        sweep(SweepConfig(families=("cyclic",), max_total_degree=6))


@pytest.mark.parametrize("n", range(3, 13))
def test_dihedral_stabilizers_match_subgroup_search(n):
    gon = dihedral_group(n)
    elements = brute_elements(gon.group.generators, n)
    found = [brute_least_conjugate(
        {p.images for p in brute_elements(H.generators, n)}, elements)
        for H in verifier._dihedral_stabilizers(gon)]
    assert found == brute_core_free_subgroups(gon.group.generators, n)


def test_dihedral_catalog_actions_are_faithful():
    for entry in default_catalog(SweepConfig(families=("dihedral",))):
        n = int(entry.name[1:])
        assert [a.degree for a in entry.actions] == \
            [2 * n, n] + ([n] if n % 2 == 0 else [])
        assert all(a.group.order() == 2 * n for a in entry.actions)


@pytest.mark.parametrize("name, products", [
    pytest.param("PSL2(8)", 121, id="PSL2(8)"),
    pytest.param("PSL2(32)", 374, id="PSL2(32)")])
def test_orbital_table_forms_only_the_transversal_elements_it_reads(
        monkeypatch, name, products):
    # each row chain stops at the known order once level 0's tree exists,
    # and the cells are read from the rows' parts, with no paired point, so
    # most level-0 elements are never formed.  The first row's from-scratch
    # build also skips the Schreier generators an involution pairs with one
    # already passed and sifts strip nothing at a base point; the counts
    # hold its 20 and 17 involution tests
    entry = next(e for e in default_catalog(
        SweepConfig(families=("psl",), include_q32=True)) if e.name == name)
    calls = count_products(monkeypatch)
    orbital_table(entry, tuple(range(len(entry.actions))))
    assert len(calls) == products
