from math import comb

import pytest

from oracles import (brute_action_kernel, brute_elements, brute_is_primitive,
                     brute_pair_classes, brute_pair_orders,
                     brute_point_stabilizer_order)
from qtperm import analysis, group
from qtperm.analysis import (CONSTANT_ONE, NON_CONSTANT, QUASI_TRANSITIVE,
                             analyze, is_faithful_on, is_frobenius,
                             is_primitive, is_three_halves, is_two_transitive,
                             orbits, pair_class_profile, quasi_verdict,
                             subdegrees)
from qtperm.constructions import (action_on_k_subsets, affine_frobenius,
                                  alternating_group, cyclic_group,
                                  dihedral_group, disjoint_sum,
                                  pgammal2_cosets, psl2_cosets,
                                  regular_action, symmetric_group)
from qtperm.group import PermGroup
from qtperm.perm import Permutation
from qtperm.verifier import default_catalog


def test_orbits_sorted_by_size_then_min():
    gens = [Permutation.from_cycles(6, [(3, 4, 5)]),
            Permutation.from_cycles(6, [(0, 1)])]
    G = PermGroup(gens, 6)
    decomp = orbits(G)
    assert decomp.orbits == ((2,), (0, 1), (3, 4, 5))
    assert decomp.representatives == (2, 0, 3)


def test_subdegrees_goldens():
    # [DERIVED] S_4 on 2-subsets: stabilizer of {0,1} has orbits 1, 1, 4
    pairs = action_on_k_subsets(symmetric_group(4), 2)
    assert subdegrees(pairs.group, 0) == (1, 1, 4)
    # [DERIVED] A_7 on 2-subsets: 1, 10, 10
    a7p = action_on_k_subsets(alternating_group(7), 2)
    assert subdegrees(a7p.group, 0) == (1, 10, 10)
    # [DERIVED] S_7 on 2-subsets: 1, 10, 10
    s7p = action_on_k_subsets(symmetric_group(7), 2)
    assert subdegrees(s7p.group, 0) == (1, 10, 10)


def test_pair_profile_matches_brute_force():
    for action in (dihedral_group(5),
                   action_on_k_subsets(symmetric_group(4), 2),
                   disjoint_sum([symmetric_group(3), symmetric_group(3)])):
        G = action.group
        elems = brute_elements(G.generators, G.degree)
        expected = brute_pair_orders(elems, G.degree)
        classes = pair_class_profile(G)
        covered = 0
        for c in classes:
            assert expected[c.representative] == c.stabilizer_order
            covered += c.size
        assert covered == comb(G.degree, 2)


def test_pair_class_sizes_sum_to_all_pairs():
    G = disjoint_sum([affine_frobenius(5),
                      regular_action(affine_frobenius(5))]).group
    classes = pair_class_profile(G)
    assert sum(c.size for c in classes) == comb(G.degree, 2)


def test_pair_profile_invariant_under_conjugation():
    G = action_on_k_subsets(symmetric_group(4), 2).group
    g = Permutation.from_cycles(6, [(0, 3, 5), (1, 4)])
    conj = PermGroup([g.inverse() * h * g for h in G.generators], 6)
    key = sorted((c.size, c.stabilizer_order, c.abelian)
                 for c in pair_class_profile(G))
    assert key == sorted((c.size, c.stabilizer_order, c.abelian)
                         for c in pair_class_profile(conj))


def _assert_pair_classes_match_brute(G):
    expected = brute_pair_classes(G.generators, G.degree, G.order())
    assert [(c.representative, c.size, c.stabilizer_order)
            for c in pair_class_profile(G)] == expected


def test_pair_classes_match_brute_on_catalog():
    checked = 0
    for entry in default_catalog():
        for action in entry.actions:
            if action.degree <= 200:
                _assert_pair_classes_match_brute(action.group)
                checked += 1
    assert checked >= 80


def _with_fixed_points():
    # S_3 on {0, 1, 2} and D_4 on {4, 5, 6, 7}, fixing 3 and 8
    return PermGroup([Permutation.from_cycles(9, cycles) for cycles in
                      ([(0, 1, 2)], [(0, 1)], [(4, 5, 6, 7)], [(4, 6)])], 9)


@pytest.mark.parametrize("build", [
    lambda: psl2_cosets(5).group,
    lambda: pgammal2_cosets(5).group,
    # suborbits that are not self-paired
    lambda: cyclic_group(7).group,
    # point 0's orbit is not the first orbit in size order
    lambda: disjoint_sum([action_on_k_subsets(symmetric_group(4), 2),
                          symmetric_group(4)]).group,
    _with_fixed_points,
], ids=["psl2_cosets(5)", "pgammal2_cosets(5)", "C7", "S4-pairs+S4",
        "fixed-points"])
def test_pair_classes_match_brute(build):
    _assert_pair_classes_match_brute(build())


def _c6_times_c6():
    # C_6 x C_6 on 6 + 6 points: each of the 3 classes of pairs inside
    # one orbit is fixed by the other factor, a C_6
    return PermGroup([Permutation.from_cycles(12, [tuple(range(6))]),
                      Permutation.from_cycles(12, [tuple(range(6, 12))])], 12)


@pytest.mark.parametrize("build, decided", [
    (lambda: symmetric_group(5).group, [(6, False)]),
    (_c6_times_c6, [(6, True)] * 6),
], ids=["S5", "C6xC6"])
def test_abelian_matches_brute_where_a_chain_decides_it(build, decided):
    # |G_ab| = 6 is not 1, p or p^2, so a chain decides ``abelian``; the
    # oracle tests every pair of elements of G_ab for commuting
    G = build()
    elements = brute_elements(G.generators, G.degree)
    seen = []
    for c in pair_class_profile(G):
        a, b = c.representative
        stabilizer = [g for g in elements if g(a) == a and g(b) == b]
        assert len(stabilizer) == c.stabilizer_order
        assert c.abelian == all(p * q == q * p
                                for p in stabilizer for q in stabilizer)
        if c.stabilizer_order == 6:
            seen.append((c.stabilizer_order, c.abelian))
    assert seen == decided


def test_analyze_builds_one_chain_with_no_known_order(monkeypatch):
    # only G's first chain runs Schreier-Sims to the end: G's other chains,
    # the images of each G_a and each G_a with base (b,) that decides
    # ``abelian`` stop at an order already known
    unbounded = []
    for module in (group, analysis):
        def recording(*args, _build=module.build_chain, **kwargs):
            unbounded.append(kwargs.get("_order") is None)
            return _build(*args, **kwargs)

        monkeypatch.setattr(module, "build_chain", recording)
    analyze(_with_fixed_points())
    assert sum(unbounded) == 1


def test_action_kernel_direct_product():
    # S_3 x S_3 acting on 3 + 3 points: kernel on the first orbit is the
    # second factor, of order 6
    s3 = symmetric_group(3)
    gens = []
    for g in s3.group.generators:
        gens.append(Permutation(tuple(g.images) + (3, 4, 5)))
        gens.append(Permutation((0, 1, 2) + tuple(x + 3 for x in g.images)))
    G = PermGroup(gens, 6)
    assert len(brute_action_kernel(G.generators, 6, [0, 1, 2])) == 6
    assert not is_faithful_on(G, [0, 1, 2])


def test_diagonal_sum_is_faithful():
    G = disjoint_sum([symmetric_group(3), symmetric_group(3)]).group
    assert is_faithful_on(G, [0, 1, 2])
    assert len(brute_action_kernel(G.generators, 6, [0, 1, 2])) == 1


def test_faithful_builds_the_image_chain_bounded_by_the_group_order(
        monkeypatch):
    # faithfulness is decided by the image of G_a, a the set's least point;
    # that image is a quotient of G_a, so its build stops at |G_a| = 2
    build_chain = analysis.build_chain
    bounds = []

    def recording(*args, **kwargs):
        bounds.append(kwargs.get("_order"))
        return build_chain(*args, **kwargs)

    monkeypatch.setattr(analysis, "build_chain", recording)
    s3 = symmetric_group(3)
    G = disjoint_sum([s3, action_on_k_subsets(s3, 2)]).group
    assert is_faithful_on(G, [0, 1, 2]) and is_faithful_on(G, [3, 4, 5])
    assert bounds == [2, 2]


def test_kernel_requires_invariant_set():
    G = symmetric_group(4).group
    with pytest.raises(ValueError):
        brute_action_kernel(G.generators, 4, [0, 1])
    with pytest.raises(ValueError, match="not invariant"):
        is_faithful_on(G, [0, 1])


@pytest.mark.parametrize("point", [-1, 5])
def test_points_out_of_range_raise(point):
    G = cyclic_group(5).group
    with pytest.raises(ValueError, match="out of range"):
        subdegrees(G, point)
    with pytest.raises(ValueError, match="out of range"):
        is_faithful_on(G, [0, 1, 2, 3, 4, point])
    with pytest.raises(ValueError, match="out of range"):
        brute_action_kernel(G.generators, 5, [0, 1, 2, 3, 4, point])


def test_two_transitive_examples():
    assert is_two_transitive(symmetric_group(5).group, range(5))
    assert is_two_transitive(affine_frobenius(5).group, range(5))
    assert not is_two_transitive(dihedral_group(5).group, range(5))
    assert is_two_transitive(cyclic_group(2).group, range(2))


def test_three_halves_examples():
    # 2-transitive implies 3/2-transitive
    assert is_three_halves(symmetric_group(4).group, range(4))
    assert is_three_halves(cyclic_group(2).group, range(2))
    # regular actions are excluded (common suborbit length 1)
    assert not is_three_halves(cyclic_group(6).group, range(6))
    # mixed suborbit lengths 1, 4
    pairs = action_on_k_subsets(symmetric_group(4), 2)
    assert not is_three_halves(pairs.group, range(6))


def test_frobenius_examples():
    assert is_frobenius(affine_frobenius(5).group, range(5))
    assert is_frobenius(dihedral_group(5).group, range(5))
    assert not is_frobenius(cyclic_group(6).group, range(6))
    assert not is_frobenius(symmetric_group(4).group, range(4))


@pytest.mark.parametrize("G, points", [
    (PermGroup([Permutation.from_cycles(3, [(1, 2)])]), [0, 1, 2]),
    (PermGroup([Permutation.identity(2)]), [0, 1]),
], ids=["<(1 2)>-on-3", "trivial-on-2"])
@pytest.mark.parametrize("classify", [is_two_transitive, is_three_halves,
                                      is_frobenius, is_primitive])
def test_classifiers_reject_an_intransitive_set(classify, G, points):
    with pytest.raises(ValueError, match="not transitive"):
        classify(G, points)


def test_primitive_examples_and_oracle():
    assert is_primitive(symmetric_group(4).group, range(4))
    assert not is_primitive(dihedral_group(4).group, range(4))
    assert not is_primitive(cyclic_group(6).group, range(6))
    for action in (dihedral_group(4), dihedral_group(5), cyclic_group(6),
                   action_on_k_subsets(symmetric_group(4), 2)):
        G = action.group
        elems = brute_elements(G.generators, G.degree)
        assert is_primitive(G, range(G.degree)) == \
            brute_is_primitive(elems, range(G.degree))


@pytest.mark.parametrize("build, searched", [
    (lambda: dihedral_group(6), True),  # subdegrees 1, 1, 2, 2: 1 + 1 = 2
    (lambda: action_on_k_subsets(symmetric_group(4), 2), True),  # 1, 1, 4
    (lambda: symmetric_group(4), False),  # 1, 3 on 4 points
    (lambda: affine_frobenius(7), False),  # a prime degree has no divisor
    (lambda: action_on_k_subsets(symmetric_group(5), 2), False),  # 1, 3, 6
    (lambda: psl2_cosets(3), False),  # 1, 9, 9, 9 on 28 points
], ids=["D6", "S4-on-pairs", "S4", "AGL(1,7)", "S5-on-pairs",
        "psl2_cosets(3)"])
def test_primitivity_from_subdegrees_skips_the_block_search(
        monkeypatch, build, searched):
    # a block through alpha is 1 + a sum of other subdegrees in size and
    # divides the degree; when no such size exists nothing is searched
    G = build().group
    trees = []
    schreier_tree = analysis.schreier_tree

    def recording(gens, alpha):
        trees.append(alpha)
        return schreier_tree(gens, alpha)

    monkeypatch.setattr(analysis, "schreier_tree", recording)
    primitive = is_primitive(G, range(G.degree))
    assert bool(trees) == searched
    # without a block size the action is primitive; the block search is
    # checked against every partition where that is affordable
    assert primitive or searched
    if G.degree <= 8:
        elements = brute_elements(G.generators, G.degree)
        assert primitive == brute_is_primitive(elements, range(G.degree))


@pytest.mark.parametrize("build", [psl2_cosets, pgammal2_cosets],
                         ids=["psl2_cosets(5)", "pgammal2_cosets(5)"])
def test_q32_coset_actions_are_primitive_by_their_subdegrees(
        monkeypatch, build):
    G = build(5).group
    monkeypatch.setattr(analysis, "schreier_tree", None)
    assert is_primitive(G, range(G.degree))


def test_quasi_verdict_statuses():
    a7p = action_on_k_subsets(alternating_group(7), 2).group
    v = quasi_verdict(a7p)
    assert v.status == QUASI_TRANSITIVE and v.t == 12

    boundary = disjoint_sum([affine_frobenius(5),
                             regular_action(affine_frobenius(5))]).group
    v = quasi_verdict(boundary)
    assert v.status == CONSTANT_ONE and v.t == 1

    bad = disjoint_sum([symmetric_group(4), symmetric_group(4)]).group
    v = quasi_verdict(bad)
    assert v.status == NON_CONSTANT
    w1, w2 = v.witnesses
    assert w1.stabilizer_order != w2.stabilizer_order


def test_analyze_report_shape():
    # diagonal C_12 acting as C_3 on one block and C_4 on the other
    G = disjoint_sum([cyclic_group(3), cyclic_group(4)]).group
    report = analyze(G)
    assert report.degree == 7
    assert report.order == 12
    assert len(report.orbit_reports) == 2
    assert all(rep.transitive for rep in report.orbit_reports)
    assert report.verdict.status == NON_CONSTANT


def test_analyze_singleton_orbit():
    gens = [Permutation.from_cycles(4, [(1, 2, 3)])]
    report = analyze(PermGroup(gens, 4))
    first = report.orbit_reports[0]
    assert first.size == 1 and first.subdegrees == (1,)
    assert first.transitive and not first.primitive


def test_point_stabilizer_order_against_brute():
    G = action_on_k_subsets(symmetric_group(5), 2).group
    elems = brute_elements(G.generators, G.degree)
    for p in range(0, G.degree, 3):
        assert G.point_stabilizer(p).order() == \
            brute_point_stabilizer_order(elems, p)


@pytest.mark.parametrize("build, k", [
    (lambda: psl2_cosets(3).group, 1),
    (lambda: disjoint_sum([cyclic_group(3), cyclic_group(4)]).group, 2),
    (_with_fixed_points, 4),
], ids=["psl2_cosets(3)", "C3+C4", "fixed-points"])
def test_analyze_builds_each_row_once(monkeypatch, build, k):
    # one orbit partition of the domain, then one per G-orbit's row
    calls = []
    partition = analysis.orbit_partition

    def counted(gens, points):
        calls.append(1)
        return partition(gens, points)

    monkeypatch.setattr(analysis, "orbit_partition", counted)
    analyze(build())
    assert len(calls) == k + 1
