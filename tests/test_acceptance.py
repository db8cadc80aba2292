"""Acceptance criteria, one test per criterion.

Each test prints ``ACCEPTANCE <n>: PASS`` (or FAIL via the assert) together
with its runtime, and asserts the stated time budget. Run with ``pytest -s``
to see the lines as they happen.
"""

import time

from oracles import (brute_elements, brute_is_primitive, brute_pair_orders,
                     brute_pair_stabilizer_order, brute_point_stabilizer_order)
from qtperm.analysis import (CONSTANT_ONE, analyze, is_primitive,
                             pair_class_profile, quasi_verdict, subdegrees)
from qtperm.constructions import (action_on_k_subsets, affine_frobenius,
                                  alternating_group, disjoint_sum,
                                  pgammal2_cosets, psl2_cosets,
                                  regular_action, symmetric_group)
from qtperm.group import schreier_tree
from qtperm.verifier import default_catalog, step4_check, sweep


def _report(n, start, budget):
    elapsed = time.monotonic() - start
    line = f"ACCEPTANCE {n}: PASS ({elapsed:.2f}s, budget {budget}s)"
    print(line)
    assert elapsed < budget, f"criterion {n} exceeded {budget}s ({elapsed:.2f}s)"


def test_acceptance_1_pairs_actions_vs_brute_oracle():
    # A_7 and S_7 on 2-subsets: constant two-point stabilizer orders 12 and
    # 24, cross-checked pair by pair against exhaustive counting
    start = time.monotonic()
    for build, expected_t in ((alternating_group, 12), (symmetric_group, 24)):
        act = action_on_k_subsets(build(7), 2)
        v = quasi_verdict(act.group)
        assert v.status == "quasi_transitive" and v.t == expected_t
        elems = brute_elements(act.group.generators, act.degree)
        for a, b in ((0, 1), (0, 7), (3, 17), (10, 20)):
            assert brute_pair_stabilizer_order(elems, a, b) == expected_t
    _report(1, start, 10)


def test_acceptance_2_psl2_8_coset_action():
    # [DERIVED] degree 28, primitive, subdegrees (1, 9, 9, 9), t = 2 with
    # abelian (order-2) two-point stabilizers
    start = time.monotonic()
    act = psl2_cosets(3)
    assert act.degree == 28
    assert act.group.order() == 504
    assert subdegrees(act.group, 0) == (1, 9, 9, 9)
    assert is_primitive(act.group, range(28))
    v = quasi_verdict(act.group)
    assert v.status == "quasi_transitive" and v.t == 2
    assert all(c.abelian for c in pair_class_profile(act.group))
    _report(2, start, 30)


def test_acceptance_3_pgammal2_8_coset_action():
    # [DERIVED] order 1512, subdegrees (1, 27), t = 2
    start = time.monotonic()
    act = pgammal2_cosets(3)
    assert act.degree == 28
    assert act.group.order() == 1512
    assert subdegrees(act.group, 0) == (1, 27)
    v = quasi_verdict(act.group)
    assert v.status == "quasi_transitive" and v.t == 2
    _report(3, start, 60)


def test_acceptance_4_arithmetic_contradiction():
    # 10 * 21 = 210 = (x - 15)(x + 14) at x = 15; d2 = 14; gcd(10, 14) = 2
    start = time.monotonic()
    rec = step4_check()
    assert rec.product == 210
    assert rec.quadratic_roots == frozenset({15})
    assert rec.orbit2_size == 15
    assert rec.d2 == 14
    assert rec.gcd == 2
    assert rec.contradiction
    _report(4, start, 1)


def test_acceptance_5_frobenius_boundary_case():
    # AGL(1,5) on 5 points plus its regular action on 20: every one of the
    # C(25,2) = 300 unordered pairs has a trivial two-point stabilizer
    start = time.monotonic()
    natural = affine_frobenius(5)
    summed = disjoint_sum([natural, regular_action(natural)])
    G = summed.group
    assert G.degree == 25
    v = quasi_verdict(G)
    assert v.status == CONSTANT_ONE and v.t == 1
    elems = brute_elements(G.generators, G.degree)
    pair_orders = brute_pair_orders(elems, G.degree)
    assert len(pair_orders) == 300
    assert set(pair_orders.values()) == {1}
    report = analyze(G)
    assert report.orbit_reports[0].frobenius
    assert subdegrees(G, report.orbit_reports[1].representative) == \
        tuple([1] * 20)
    _report(5, start, 5)


def test_acceptance_6_sweep_finds_no_quasi_transitive_sum():
    # every disjoint sum in the default catalog is intransitive; none may
    # come out quasi-transitive
    start = time.monotonic()
    result = sweep()
    assert result.tested >= 100
    assert result.findings == []
    assert result.lemma_violations == []
    _report(6, start, 300)


def test_acceptance_7_engine_matches_oracles_across_catalog():
    # for every catalog action with |G| <= 10^4: group order, point
    # stabilizer order and two-point stabilizer orders against exhaustive
    # counting; primitivity against exhaustive block search for degree <= 12
    start = time.monotonic()
    checked = 0
    for entry in default_catalog():
        for act in entry.actions:
            G = act.group
            if G.order() > 10_000:
                continue
            elems = brute_elements(G.generators, G.degree)
            assert G.order() == len(elems)
            alpha = 0
            stab = G.point_stabilizer(alpha)
            assert stab.order() == brute_point_stabilizer_order(elems, alpha)
            for beta in range(1, min(G.degree, 4)):
                assert stab.point_stabilizer(beta).order() == \
                    brute_pair_stabilizer_order(elems, alpha, beta)
            transitive = len(schreier_tree(G.generators, 0)) == G.degree
            if G.degree <= 12 and transitive:
                assert is_primitive(G, range(G.degree)) == \
                    brute_is_primitive(elems, range(G.degree))
            checked += 1
    assert checked >= 40
    _report(7, start, 120)


def test_acceptance_8_classification_chain_on_catalog():
    # on every transitive catalog action: 2-transitive implies
    # 3/2-transitive, and 3/2-transitive implies primitive or Frobenius
    start = time.monotonic()
    checked = 0
    for entry in default_catalog():
        for act in entry.actions:
            G = act.group
            if len(schreier_tree(G.generators, 0)) != G.degree \
                    or G.degree < 2:
                continue
            report = analyze(G)
            (orbit,) = report.orbit_reports
            if orbit.two_transitive:
                assert orbit.three_halves, act.label
            if orbit.three_halves:
                assert orbit.primitive or orbit.frobenius, act.label
            checked += 1
    assert checked >= 40
    _report(8, start, 180)
