import hashlib

import pytest

from oracles import brute_elements, brute_orbit, brute_order
from qtperm import group
from qtperm.constructions import (alternating_group, pgammal2_cosets, psl2,
                                  psl2_cosets, symmetric_group)
from qtperm.group import (PermGroup, StabilizerChain, Transversal,
                          build_chain, orbit_partition, schreier_tree)
from qtperm.perm import Permutation
from qtperm.verifier import SweepConfig, default_catalog


def s4():
    return symmetric_group(4).group


def test_order_s4():
    assert s4().order() == 24


def test_order_matches_brute_closure_a4():
    gens = [Permutation.from_cycles(4, [(0, 1, 2)]),
            Permutation.from_cycles(4, [(1, 2, 3)])]
    G = PermGroup(gens, 4)
    assert G.order() == brute_order(gens, 4) == 12


def test_order_a7():
    assert alternating_group(7).group.order() == 2520


def test_order_psl2_8():
    assert psl2(3).group.order() == 504


def test_membership_matches_brute_force():
    gens = [Permutation.from_cycles(4, [(0, 1, 2)]),
            Permutation.from_cycles(4, [(1, 2, 3)])]
    G = PermGroup(gens, 4)
    elems = {p.images for p in brute_elements(gens, 4)}
    import itertools
    for images in itertools.permutations(range(4)):
        assert G.contains(Permutation(images)) == (images in elems)


def test_transposition_not_in_a4():
    G = alternating_group(4).group
    assert not G.contains(Permutation.from_cycles(4, [(0, 1)]))


def test_base_prefix_is_honored():
    G = s4()
    chain = G.chain((2, 0))
    assert chain.base[:2] == (2, 0)
    assert chain.order() == 24


def test_transversal_sizes_multiply_to_order():
    G = alternating_group(6).group
    chain = G.chain()
    prod = 1
    for size in chain.transversal_sizes():
        prod *= size
    assert prod == G.order() == 360


def test_orbit_matches_brute():
    gens = [Permutation.from_cycles(7, [(0, 1, 2)]),
            Permutation.from_cycles(7, [(4, 5)])]
    G = PermGroup(gens, 7)
    parts = orbit_partition(G.generators, range(7))
    for p in range(7):
        assert sorted(schreier_tree(G.generators, p)) == brute_orbit(gens, p)
        assert sorted(next(o for o in parts if p in o)) == brute_orbit(gens, p)


def _tree_partition(gens, degree):
    """Orbits as the keys of one Schreier tree per orbit, as first met."""
    seen, parts = set(), []
    for p in range(degree):
        if p not in seen:
            orbit = list(schreier_tree(gens, p))
            seen.update(orbit)
            parts.append(orbit)
    return parts


def test_orbit_partition_matches_the_schreier_trees():
    for entry in default_catalog(SweepConfig(include_q32=True)):
        for action in entry.actions:
            G = action.group
            for gens in (G.generators,
                         G.chain((0,)).generators_fixing(1), []):
                assert orbit_partition(gens, range(G.degree)) == \
                    _tree_partition(gens, G.degree), action.label
    assert orbit_partition([], range(3)) == [[0], [1], [2]]


@pytest.mark.parametrize("point", [-1, 4])
def test_point_stabilizer_rejects_points_out_of_range(point):
    with pytest.raises(ValueError, match="out of range"):
        s4().point_stabilizer(point)


def test_point_stabilizer_orbit_stabilizer():
    G = s4()
    stab = G.point_stabilizer(1)
    assert stab.order() == 6
    assert all(g(1) == 1 for g in stab.elements())
    assert G.order() == stab.order() * len(schreier_tree(G.generators, 1))


def test_two_point_stabilizer_symmetry():
    G = alternating_group(5).group
    assert (G.point_stabilizer(0).point_stabilizer(3).order()
            == G.point_stabilizer(3).point_stabilizer(0).order() == 3)


def test_order_invariant_under_base_change():
    G = psl2(3).group
    assert G.chain((5, 2, 0)).order() == G.chain().order() == 504


def test_trivial_group():
    G = PermGroup([Permutation.identity(3)], 3)
    assert G.order() == 1
    assert list(G.elements()) == [Permutation.identity(3)]


def test_elements_enumeration_matches_brute():
    gens = [Permutation.from_cycles(5, [(0, 1, 2, 3, 4)]),
            Permutation.from_cycles(5, [(1, 4), (2, 3)])]
    G = PermGroup(gens, 5)
    assert sorted(p.images for p in G.elements()) == \
        sorted(p.images for p in brute_elements(gens, 5))


def test_elements_from_a_level_are_the_stabilizer_and_open_the_blocks():
    G = psl2(3).group
    chain = G.chain()
    everything = list(chain.elements())
    level = [list(chain.elements(k)) for k in range(len(chain.base) + 1)]
    assert level[0] == everything
    assert level[-1] == [Permutation.identity(9)]
    # each block of the enumeration is level 1 times one transversal element
    size = len(level[1])
    for n, gamma in enumerate(sorted(chain.transversals[0])):
        u = chain.transversals[0][gamma]
        assert everything[n * size:(n + 1) * size] == [s * u for s in level[1]]
    b = chain.base[0]
    assert {g.images for g in level[1]} == {
        g.images for g in brute_elements(G.generators, 9) if g(b) == b}
    for bad in (-1, len(chain.base) + 1):
        with pytest.raises(ValueError):
            chain.elements(bad)


def test_build_chain_rejects_mismatched_degree():
    with pytest.raises(ValueError):
        build_chain([Permutation.identity(3), Permutation.identity(4)], 4)


def test_point_stabilizer_elements_come_from_its_own_chain():
    G = symmetric_group(5).group
    stab = G.point_stabilizer(3)
    fresh = PermGroup(stab.generators, 5)
    assert list(stab.elements()) == list(fresh.elements())


def _chain_record(chain):
    return repr((chain.base,
                 [[t[gamma].images for gamma in sorted(t)]
                  for t in chain.transversals],
                 [[g.images for g in t.gens] for t in chain.transversals]
                 + [[]]))


def _catalog_actions():
    actions = [a for entry in default_catalog(SweepConfig(include_q32=True))
               for a in entry.actions]
    return actions + [psl2_cosets(5), pgammal2_cosets(5)]


def test_catalog_chains_are_pinned():
    # elements() order, the dihedral search and so the coset labels read
    # these chains; the digest pins every base, transversal element and
    # strong generator, level by level
    digest = hashlib.sha256()
    count = 0
    for action in _catalog_actions():
        n = action.degree
        G = PermGroup(action.group.generators, n)
        for prefix in ((), (n - 1,)):
            digest.update(_chain_record(G.chain(prefix)).encode())
            count += 1
    assert count == 216
    assert digest.hexdigest() == (
        "02caa86c6ac021b9fe80b2a4ff1a2dfbd725a00e6ea6f4a538eae1dfa63f83c2")


def test_a_known_order_stop_changes_no_chain():
    # PermGroup.chain and the two-point stabilizers of analyze stop a build
    # once its order is known; the chain is then that of the full build
    count = 0
    for action in _catalog_actions():
        gens, n = action.group.generators, action.degree
        for prefix in ((), (n - 1,)):
            full = build_chain(gens, n, prefix)
            stopped = build_chain(gens, n, prefix, _order=full.order())
            assert _chain_record(stopped) == _chain_record(full)
            count += 1
    assert count == 216


@pytest.mark.parametrize("build", [psl2_cosets, pgammal2_cosets],
                         ids=["psl2_cosets(5)", "pgammal2_cosets(5)"])
def test_only_new_strong_generators_are_inverted(monkeypatch, build):
    action = build(5)
    gens, n = action.group.generators, action.degree
    calls = []
    original = Permutation.inverse

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Permutation, "inverse", counted)
    chain = build_chain(gens, n, (0,))
    added = ({g.images for t in chain.transversals for g in t.gens}
             - {g.images for g in gens})
    assert 0 < len(calls) <= len(added)
    calls.clear()
    t = Permutation.from_cycles(n, [(0, 1)])
    members = [gens[0], gens[0] * gens[-1], gens[-1] * gens[0] * gens[0]]
    assert all(chain.contains(g) for g in members)
    assert not any(chain.contains(g * t) for g in members)
    assert calls == []


def test_level_scans_skip_involution_partners(monkeypatch):
    # each level's scan starts from the least gamma on every visit, and
    # skips the generators that an involution pairs with one already
    # passed; a scan that tests them takes 557 and 1,059 sifts
    sifts = []
    original = group.StabilizerChain.sift

    def counted(self, a, b, start):
        sifts.append(start)
        return original(self, a, b, start)

    monkeypatch.setattr(group.StabilizerChain, "sift", counted)
    for build, order, expected in ((psl2_cosets, 32 * (32 ** 2 - 1), 389),
                                   (pgammal2_cosets, 5 * 32 * (32 ** 2 - 1),
                                    819)):
        action = build(5)
        sifts.clear()
        chain = build_chain(action.group.generators, action.degree, (0,))
        assert chain.order() == order
        assert len(sifts) == expected, action.label


def _unformed(chain):
    """A copy of ``chain`` whose levels hold no formed element but the root."""
    levels = [Transversal(t.gens, b, chain.degree)
              for t, b in zip(chain.transversals, chain.base)]
    return StabilizerChain(chain.degree, chain.base, levels)


def test_transversal_reads_its_tree_before_forming_elements():
    for action in (psl2_cosets(3), symmetric_group(5), psl2(3)):
        gens, n = action.group.generators, action.degree
        alpha = n - 1
        trans = Transversal(gens, alpha, n)
        tree = schreier_tree(gens, alpha)
        assert list(trans) == list(tree)
        assert list(trans.keys()) == list(tree)
        assert len(trans) == len(tree)
        assert all((x in trans) == (x in tree) for x in range(-1, n + 1))
        assert dict.__len__(trans) == 1
        # forming elements changes none of the answers
        expected = {alpha: Permutation.identity(n)}
        for b, edge in tree.items():
            if edge is not None:
                expected[b] = expected[edge[0]] * edge[1]
        assert dict(trans.items()) == expected
        assert list(trans) == list(tree) and len(trans) == len(tree)
        assert trans.get(n) is None and trans.get(alpha) == expected[alpha]


def test_reading_one_element_forms_only_its_tree_path():
    action = psl2_cosets(3)
    trans = Transversal(action.group.generators, 0, action.degree)
    gamma = next(reversed(trans.tree))
    depth, a = 0, gamma
    while trans.tree[a] is not None:
        a, depth = trans.tree[a][0], depth + 1
    assert depth > 1
    u = trans[gamma]
    assert u(0) == gamma
    assert dict.__len__(trans) == depth + 1


def test_sift_strips_by_elements_not_formed_yet():
    G = psl2_cosets(3).group
    chain = _unformed(G.chain())
    p = next(g for g in G.elements() if g(chain.base[0]) != chain.base[0])
    # dict.get, which never calls __missing__, would stop at level 0
    assert dict.get(chain.transversals[0], p(chain.base[0])) is None
    b, level = chain.sift(p.images, Permutation.identity(G.degree).images, 0)
    assert level == len(chain.base) and b == p.images
    assert chain.contains(p)


def test_sift_stops_at_a_point_outside_the_basic_orbit():
    c = Permutation.from_cycles(4, [(0, 1, 2)])
    chain = PermGroup([c], 4).chain()
    t = Permutation.from_cycles(4, [(0, 3)])
    b, level = chain.sift(t.images, Permutation.identity(4).images, 0)
    assert (b, level) == (Permutation.identity(4).images, 0)
    assert not chain.contains(t)
    # the sift looks for the point among the images on the orbit alone
    points, at_points = chain.transversals[0].at_orbit
    assert points == (0, 1, 2)
    assert at_points(t.images) == (3, 1, 2)
    assert PermGroup([c, t], 4).chain().transversals[0].at_orbit is None


def test_deep_tree_forms_its_last_element_without_recursion():
    # one cycle of length 1,200: the tree is a path deeper than the
    # default recursion limit, and its last point is read first
    n = 1200
    c = Permutation.from_cycles(n, [tuple(range(n))])
    trans = Transversal([c], 0, n)
    last = next(reversed(trans.tree))
    assert last == n - 1
    assert trans[last] == c ** (n - 1)
    chain = build_chain([c], n, _order=n)
    assert chain.order() == n and chain.contains(c ** 7)
