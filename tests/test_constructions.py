import hashlib
import json
import random
from operator import itemgetter

import pytest

from counters import count_products
from oracles import (brute_coset_action, brute_elements, brute_normalizer,
                     brute_order, brute_torus_generator, moebius_images)
from qtperm import constructions, group, verifier
from qtperm.analysis import is_two_transitive, subdegrees
from qtperm.constructions import (LabeledAction, _coset_levels,
                                  _min_coset_rep, a7_on_15,
                                  action_on_k_subsets, affine_frobenius,
                                  alternating_group, coset_action,
                                  cyclic_group, dihedral_2q_plus_2_subgroup,
                                  dihedral_group, disjoint_sum, gl32_subgroup,
                                  pgammal2, pgammal2_cosets, psl2,
                                  psl2_cosets, regular_action,
                                  subgroup_normalizer, symmetric_group)
from qtperm.gf2 import IRREDUCIBLE, GF2Field
from qtperm.group import PermGroup, build_chain
from qtperm.perm import Permutation


def test_basic_orders():
    assert symmetric_group(5).group.order() == 120
    assert alternating_group(6).group.order() == 360
    assert cyclic_group(12).group.order() == 12
    assert dihedral_group(7).group.order() == 14
    assert affine_frobenius(7).group.order() == 42


def test_orders_match_brute_closure():
    for act in (symmetric_group(4), alternating_group(5), dihedral_group(6),
                affine_frobenius(5)):
        G = act.group
        assert G.order() == brute_order(G.generators, G.degree)


def test_labeled_action_bijection_enforced():
    G = symmetric_group(3).group
    with pytest.raises(ValueError):
        LabeledAction(G, "bad", ["a", "a", "b"])
    with pytest.raises(ValueError):
        LabeledAction(G, "bad", ["a", "b"])


def test_labeling_round_trip():
    act = action_on_k_subsets(symmetric_group(4), 2)
    for i in range(act.degree):
        assert act.points.index(act.points[i]) == i
    assert act.points[0] == (0, 1)


def test_k_subsets_preserves_order_when_faithful():
    base = symmetric_group(5)
    act = action_on_k_subsets(base, 2)
    assert act.degree == 10
    assert act.group.order() == 120


def test_regular_action_trivial_stabilizers():
    act = regular_action(dihedral_group(5))
    assert act.degree == 10
    assert act.group.order() == 10
    assert subdegrees(act.group, 0) == tuple([1] * 10)
    assert act.group.point_stabilizer(0).order() == 1


@pytest.mark.parametrize("build", [
    lambda: dihedral_group(5), lambda: affine_frobenius(7),
    lambda: symmetric_group(4), lambda: psl2(2), lambda: cyclic_group(1),
], ids=["D5", "AGL(1,7)", "S4", "PSL2(4)", "C1"])
def test_regular_action_matches_the_element_products(build):
    # the points are the sorted elements, and generator s sends p to p * s
    action = build()
    G = action.group
    elements = sorted(p.images for p in brute_elements(G.generators, G.degree))
    index = {e: i for i, e in enumerate(elements)}
    expected = [tuple(index[(Permutation(e) * s).images] for e in elements)
                for s in G.generators]
    regular = regular_action(action)
    assert list(regular.points) == elements
    assert [g.images for g in regular.group.generators] == expected


def test_regular_action_respects_cap():
    with pytest.raises(ValueError):
        regular_action(symmetric_group(8))


def test_coset_action_refuses_a_large_index_before_enumerating(monkeypatch):
    trivial = PermGroup([Permutation.identity(8)], 8)
    products = count_products(monkeypatch)
    with pytest.raises(ValueError,
                       match=r"^coset index too large: 40320 > 10000$"):
        coset_action(symmetric_group(8), trivial)
    # the orders alone; each of the 40,320 cosets would cost a product
    assert len(products) < 1000


def test_affine_frobenius_two_transitive():
    for p in (3, 5, 7):
        act = affine_frobenius(p)
        assert act.group.order() == p * (p - 1)
        assert is_two_transitive(act.group, range(p))


def test_affine_rejects_composite():
    with pytest.raises(ValueError):
        affine_frobenius(9)


def test_disjoint_sum_structure():
    act = disjoint_sum([dihedral_group(4), dihedral_group(4)])
    assert act.degree == 8
    assert act.group.order() == 8
    assert act.points[0] == (0, 0) and act.points[4] == (1, 0)


def test_disjoint_sum_rejects_generator_mismatch():
    with pytest.raises(ValueError):
        disjoint_sum([cyclic_group(3), symmetric_group(3)])


def test_psl2_8():
    act = psl2(3)
    assert act.degree == 9
    assert act.group.order() == 504
    assert is_two_transitive(act.group, range(9))


def test_pgammal2_8():
    act = pgammal2(3)
    assert act.degree == 9
    assert act.group.order() == 1512


@pytest.mark.parametrize("f", sorted(IRREDUCIBLE))
def test_projective_generators_match_the_moebius_oracle(f):
    # x+1, lambda*x and 1/x, then for PGammaL2 the Frobenius x -> x^2,
    # which is no Moebius map and is written out here
    field = GF2Field(f)
    q, lam = field.q, field.primitive_element()
    moebius = [moebius_images(field, *abcd)
               for abcd in ((1, 1, 0, 1), (lam, 0, 0, 1), (0, 1, 1, 0))]
    frobenius = tuple(field.mul(x, x) for x in range(q)) + (q,)
    points = tuple(range(q)) + ("inf",)
    for act, label, expected in (
            (psl2(f), f"PSL2({q})-projective", moebius),
            (pgammal2(f), f"PGammaL2({q})-projective", moebius + [frobenius])):
        assert [g.images for g in act.group.generators] == expected
        assert (act.label, act.points, act.degree) == (label, points, q + 1)


def test_dihedral_subgroup_of_psl2_8():
    D = dihedral_2q_plus_2_subgroup(psl2(3))
    assert D.order() == 18
    assert max(g.order() for g in D.elements()) == 9


@pytest.mark.parametrize("f", [3, 5])
def test_dihedral_subgroup_reflection_fixes_zero_and_inverts_the_torus(f):
    c, j = dihedral_2q_plus_2_subgroup(psl2(f)).generators
    assert j.order() == 2
    assert j(0) == 0
    assert j * c * j == c.inverse()


@pytest.mark.parametrize("f", [2, 3, 4, 5, 6])
def test_torus_search_matches_the_full_scan(f):
    # the skipped block fixes a point, so the first element of order q+1
    # is the one the whole enumeration meets first
    proj = psl2(f)
    c = dihedral_2q_plus_2_subgroup(proj).generators[0]
    assert c == brute_torus_generator(proj.group.elements(), proj.degree)


def test_torus_search_and_coset_enumeration_work(monkeypatch):
    # PSL2(32): the torus search takes the order of 33 elements outside G_0
    # (not of all 1,025 up to the first of order 33), and the coset
    # enumeration forms no Permutation product per coset and generator; the
    # products are those of the chain builds of the group and of D (which
    # skip the Schreier generators an involution pairs with one already
    # passed, strip nothing at a base point, and test 7 generators for
    # being involutions), 31 for the deeper level of G_0's enumeration, and
    # two per element the search examines: one as the enumeration yields
    # s, one for s * u.  The enumeration's 43 hold 5 involution tests
    proj = psl2(5)
    calls = count_products(monkeypatch)
    orders = []
    order = Permutation.order
    monkeypatch.setattr(Permutation, "order",
                        lambda p: orders.append(None) or order(p))
    D = dihedral_2q_plus_2_subgroup(proj)
    assert len(orders) == 33
    assert len(calls) == 414
    calls.clear()
    assert coset_action(proj, D).degree == 496
    assert len(calls) == 43


def test_dihedral_subgroup_is_the_torus_normalizer_in_psl2_8():
    proj = psl2(3)
    D = dihedral_2q_plus_2_subgroup(proj)
    scanned = brute_normalizer(proj.group.generators, D.generators[:1], 9)
    assert {g.images for g in D.elements()} == {g.images for g in scanned}


def _coset_rep_cases():
    cases = []
    for n in (4, 5, 6, 9):
        gon = dihedral_group(n)
        cases += [(f"D{n}-{k}", gon.group, H)
                  for k, H in enumerate(verifier._dihedral_stabilizers(gon))]
    cases.append(("D18-in-PSL2(8)", psl2(3).group,
                  dihedral_2q_plus_2_subgroup(psl2(3))))
    cases.append(("GL(3,2)-in-A7", alternating_group(7).group,
                  gl32_subgroup()))
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("name, G, H", _coset_rep_cases())
def test_min_coset_rep_is_the_lex_least_element_of_the_coset(name, G, H):
    points = tuple(range(H.degree))
    levels = _coset_levels(build_chain(H.generators, H.degree, points),
                           itemgetter(*points))
    h_elements = brute_elements(H.generators, H.degree)
    g_elements = brute_elements(G.generators, G.degree)
    rng = random.Random(name)
    for g in rng.sample(g_elements, min(len(g_elements), 25)):
        least = min((h * g).images for h in h_elements)
        images, (times_u, at_base) = _min_coset_rep(
            levels, g.images, (tuple, itemgetter(*points)))
        # the base here is every point, so both maps give the whole element
        assert times_u(images) == at_base(images) == least


def test_normalizer_of_dihedral_in_pgammal2():
    D = dihedral_2q_plus_2_subgroup(psl2(3))
    proj = pgammal2(3)
    N = subgroup_normalizer(proj, D)
    assert N.order() == 54
    scanned = brute_normalizer(proj.group.generators, D.generators, 9)
    assert {g.images for g in N.elements()} == {g.images for g in scanned}


def test_normalizer_of_dihedral_in_pgammal2_32():
    D = dihedral_2q_plus_2_subgroup(psl2(5))
    N = subgroup_normalizer(pgammal2(5), D)
    assert N.order() == 330
    assert all(N.contains(d) for d in D.generators)
    assert all(D.contains(n.inverse() * d * n)
               for n in N.generators for d in D.generators)


def test_normalizer_needs_the_torus_generator_first():
    c, j = dihedral_2q_plus_2_subgroup(psl2(3)).generators
    with pytest.raises(ValueError):
        subgroup_normalizer(pgammal2(3), PermGroup([j, c], 9))


def test_psl2_cosets_degree_28():
    act = psl2_cosets(3)
    assert act.degree == 28
    assert act.group.order() == 504
    assert subdegrees(act.group, 0) == (1, 9, 9, 9)


def test_pgammal2_cosets_degree_28():
    act = pgammal2_cosets(3)
    assert act.degree == 28
    assert act.group.order() == 1512
    assert subdegrees(act.group, 0) == (1, 27)


# sha256 of the generators and coset representatives of each action: the
# labelling of the coset points must not move when a construction changes.
COSET_DIGESTS = {
    (psl2_cosets, 3):
        "bbc135da006a856f0d5df6180729d3ab0c10ef1ca2e63a11685bf4fb5ce883c3",
    (pgammal2_cosets, 3):
        "742833a35c91bad47fb9e7b7f74e74aaa1482ee0071ce5b668e156a354b13214",
    (psl2_cosets, 5):
        "7737d24664178872608fb93d014571fd6edbc909d588b0364db952903fd79989",
    (pgammal2_cosets, 5):
        "c91418d823979df0f880bb50a7ac45b2db3d1c35aadad564bad63775a29ed31c",
    (psl2_cosets, 2):
        "7fe6b484fa7d505f355538464da429a8e1744b2adc914efdcb0a3066f823b27d",
    (pgammal2_cosets, 2):
        "5a476e9561af0ca583a1fa1d8cc5131be7b7fb56d662daef47a03373e718b92c",
    (psl2_cosets, 4):
        "d3acc1bf14a9196d984e972912cd513ef6bd4749d10e95a40c7b4ca64e4671c0",
    (pgammal2_cosets, 4):
        "a205073aaed07354ec5a5ab06b66d43200476a696096afe975a6f4327cd01fca",
    (psl2_cosets, 6):
        "1ef5a5d35538cbaf14dd1aa63a866eaaf26a6d11b2a4ba504ec85bccf3212e49",
    (pgammal2_cosets, 6):
        "d4a9d3877b8a59b99ef1242103c898d3d3fb577cd4a98abd5483910de27e135e",
}


@pytest.mark.parametrize("build, f", list(COSET_DIGESTS),
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_coset_actions_golden_digest(build, f):
    act = build(f)
    text = json.dumps([[list(g.images) for g in act.group.generators],
                       [list(p.images) for p in act.points]])
    assert hashlib.sha256(text.encode()).hexdigest() == COSET_DIGESTS[build, f]


def _coset_oracle_cases():
    cases = [("S4-order-2", symmetric_group(4),
              PermGroup([Permutation.from_cycles(4, [(0, 1)])], 4))]
    for n in (5, 6):
        gon = dihedral_group(n)
        s = gon.group.generators[1]
        cases += [(f"D{n}-1", gon, PermGroup([Permutation.identity(n)], n)),
                  (f"D{n}-s", gon, PermGroup([s], n))]
    cases.append(("A7-GL(3,2)", alternating_group(7), gl32_subgroup()))
    cases.append(("PSL2(8)-D18", psl2(3), dihedral_2q_plus_2_subgroup(psl2(3))))
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


@pytest.mark.parametrize("action, H", _coset_oracle_cases())
def test_coset_action_matches_brute_force(action, H):
    act = coset_action(action, H)
    gens, reps = brute_coset_action(action.group.generators, H.generators,
                                    action.degree)
    assert [g.images for g in act.group.generators] == gens
    assert [p.images for p in act.points] == reps


def test_coset_enumeration_forms_each_representative_once(monkeypatch):
    # PSL2(32) on 496 cosets: with keys on G's base only a new coset's
    # least element is formed in full, and H's is the identity, which is
    # not formed; pairing the edges of the two involutions among the three
    # generators leaves 1,008 of the 1,488 (coset, generator) entries to
    # search
    formed, searched = [], []
    levels_of, least_of = constructions._coset_levels, \
        constructions._min_coset_rep

    def counting_levels(chain, at_base):
        levels = levels_of(chain, at_base)
        at_orbit, steps = levels[-1]

        def counted(times_u):
            def form(images):
                formed.append(None)
                return times_u(images)
            return form

        levels[-1] = (at_orbit, {gamma: (counted(times_u), at_base)
                                 for gamma, (times_u, at_base)
                                 in steps.items()})
        return levels

    def counting_least(*args):
        searched.append(None)
        return least_of(*args)

    monkeypatch.setattr(constructions, "_coset_levels", counting_levels)
    monkeypatch.setattr(constructions, "_min_coset_rep", counting_least)
    assert psl2_cosets(5).degree == 496
    assert len(formed) == 495
    assert len(searched) == 1008


def test_coset_action_point_stabilizer_is_subgroup():
    base = symmetric_group(4)
    H = PermGroup([Permutation.from_cycles(4, [(0, 1)]),
                   Permutation.from_cycles(4, [(0, 1, 2)])], 4)
    act = coset_action(base, H)
    assert act.degree == 4
    coset = act.points.index(Permutation.identity(4))
    stab = act.group.point_stabilizer(coset)
    assert stab.order() == H.order() == 6


def test_coset_action_of_degree_one():
    act = coset_action(symmetric_group(1),
                       PermGroup([Permutation.identity(1)], 1))
    assert act.degree == 1
    assert act.points == (Permutation.identity(1),)


def test_coset_action_builds_one_chain_of_the_subgroup(monkeypatch):
    base = symmetric_group(4)
    base.group.order()
    built = []

    def recording(generators, degree, base_prefix=(), **kwargs):
        built.append(tuple(base_prefix))
        return build_chain(generators, degree, base_prefix, **kwargs)

    monkeypatch.setattr(group, "build_chain", recording)
    H = PermGroup([Permutation.from_cycles(4, [(0, 1)])], 4)
    assert coset_action(base, H).degree == 12
    assert built == [(0, 1, 2, 3)]


def test_coset_action_rejects_non_subgroup():
    base = alternating_group(4)
    H = PermGroup([Permutation.from_cycles(4, [(0, 1)])], 4)
    with pytest.raises(ValueError):
        coset_action(base, H)


def test_gl32_subgroup_inside_a7():
    G = gl32_subgroup()
    assert G.order() == 168
    A7 = alternating_group(7).group
    assert all(A7.contains(g) for g in G.generators)


def test_a7_on_15_two_transitive():
    act = a7_on_15()
    assert act.degree == 15
    assert act.group.order() == 2520
    assert is_two_transitive(act.group, range(15))
    assert subdegrees(act.group, 0) == (1, 14)


def test_psl2_32_smoke():
    act = psl2(5)
    assert act.degree == 33
    assert act.group.order() == 32 * 31 * 33
