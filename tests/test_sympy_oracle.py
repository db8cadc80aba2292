"""Differential checks against sympy's permutation groups.

sympy is a second, independent engine. It reaches actions the brute-force
oracles cannot, such as primitivity above degree 12 and faithfulness above
|G| = 10^4, and guards the one-point-per-suborbit shortcut in
``is_primitive`` and the point-stabilizer test in ``is_faithful_on``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtperm.analysis import is_faithful_on, is_primitive, orbits, subdegrees
from qtperm.constructions import (action_on_k_subsets, affine_frobenius,
                                  alternating_group, coset_action,
                                  cyclic_group, dihedral_group, disjoint_sum,
                                  pgammal2_cosets, psl2, psl2_cosets,
                                  regular_action, symmetric_group)
from qtperm.group import PermGroup
from qtperm.perm import Permutation

combinatorics = pytest.importorskip("sympy.combinatorics")


def _sympy_group(gens):
    return combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(images)) for images in gens])


def _dihedral_coset_actions(n):
    """D_n on the cosets of <r^2>, <s>, <r^2, s> and <r^(n/2)>, n even."""
    gon = dihedral_group(n)
    r, s = gon.group.generators
    for gens in ([r ** 2], [s], [r ** 2, s], [r ** (n // 2)]):
        yield coset_action(gon, PermGroup(gens, n))


def _actions():
    yield symmetric_group(5)
    yield dihedral_group(5)
    yield dihedral_group(8)
    yield from _dihedral_coset_actions(6)
    yield from _dihedral_coset_actions(8)
    yield regular_action(dihedral_group(4))
    yield regular_action(affine_frobenius(5))
    yield cyclic_group(9)
    yield action_on_k_subsets(symmetric_group(4), 2)
    yield disjoint_sum([affine_frobenius(5),
                        regular_action(affine_frobenius(5))])
    yield disjoint_sum([symmetric_group(4),
                        action_on_k_subsets(symmetric_group(4), 2)])
    # above the brute-force primitivity cap of degree 12
    yield action_on_k_subsets(alternating_group(7), 2)
    yield psl2_cosets(3)
    yield action_on_k_subsets(symmetric_group(8), 4)
    # 120 points; PGammaL2(16), with f = 4 composite, has mixed subdegrees
    yield psl2_cosets(4)
    yield pgammal2_cosets(4)
    # the paper's largest exhibits, PSL2(32) and PGammaL2(32) on 496 cosets
    yield psl2_cosets(5)
    yield pgammal2_cosets(5)


ACTIONS = list(_actions())


@pytest.mark.parametrize("action", ACTIONS, ids=lambda action: action.label)
def test_orbits_subdegrees_and_primitivity_match_sympy(action):
    G = action.group
    S = _sympy_group(g.images for g in G.generators)
    assert G.order() == S.order()
    decomp = orbits(G)
    assert sorted(decomp.orbits) == sorted(
        tuple(sorted(orbit)) for orbit in S.orbits())
    for orbit in decomp.orbits:
        for alpha in (orbit[0], orbit[-1]):
            expected = sorted(len(o) for o in S.stabilizer(alpha).orbits()
                              if o <= set(orbit))
            assert subdegrees(G, alpha) == tuple(expected)
            # sympy's pointwise_stabilizer, not its stabilizer(alpha).order():
            # that one runs Schreier-Sims on every Schreier generator, about
            # 2 s a point on PGammaL2(32) on 496 cosets
            assert G.point_stabilizer(alpha).order() == \
                S.pointwise_stabilizer([alpha]).order()
        if len(orbit) < 2:
            continue
        alpha, beta = orbit[-1], orbit[len(orbit) // 3]
        assert G.point_stabilizer(alpha).point_stabilizer(beta).order() == \
            S.pointwise_stabilizer([alpha, beta]).order()
        index = {p: i for i, p in enumerate(orbit)}
        restricted = _sympy_group(
            [index[g(p)] for p in orbit] for g in G.generators)
        assert is_primitive(G, orbit) == restricted.is_primitive()


def _psl2_32_times_c3():
    """PSL2(32) on 33 points times C3 on 3 more: order 98,208."""
    projective = psl2(5)
    n = projective.degree
    gens = [Permutation(g.images + (n, n + 1, n + 2))
            for g in projective.group.generators]
    gens.append(Permutation(tuple(range(n)) + (n + 1, n + 2, n)))
    return PermGroup(gens, n + 3), n


@pytest.mark.parametrize("case", ["diagonal", "direct"])
def test_faithfulness_above_the_brute_force_cap_matches_sympy(case):
    # G is faithful on a summand exactly when its image there is as large
    if case == "diagonal":
        summands = [psl2(5), psl2_cosets(5)]
        G = disjoint_sum(summands).group
        cut = summands[0].degree
    else:
        G, cut = _psl2_32_times_c3()
        assert G.order() == 98_208
    S = _sympy_group(g.images for g in G.generators)
    assert G.order() == S.order()
    for points in (range(cut), range(cut, G.degree)):
        start = points[0]
        image = _sympy_group([g(p) - start for p in points]
                             for g in G.generators)
        assert is_faithful_on(G, points) == (image.order() == S.order())
        assert is_faithful_on(G, points) == (case == "diagonal")


def _relabel(images, pi):
    """The permutation pi^-1 x pi: x's images with every point renamed by pi."""
    out = [0] * len(images)
    for x, y in enumerate(images):
        out[pi[x]] = pi[y]
    return out


@st.composite
def large_generator_sets(draw):
    """Generator sets of degree 13-24, above the brute-force closure cap.

    Besides plain random sets (mostly S_n or A_n), they hold disjoint
    unions of random permutations on 2-3 blocks (intransitive),
    permutations preserving a block system (imprimitive) and 2-3
    involutions, some with fixed points, with at most one random
    permutation beside them, all relabelled at random, so that residues
    land on several levels of the chain and the scan meets the Schreier
    generators an involution pairs.
    """
    kind = draw(st.sampled_from(
        ["random", "intransitive", "imprimitive", "involutions"]))
    count = draw(st.integers(1, 3))
    if kind == "random":
        n = draw(st.integers(13, 24))
        return n, [list(draw(st.permutations(range(n)))) for _ in range(count)]
    if kind == "involutions":
        n = draw(st.integers(13, 24))
        gens = []
        for _ in range(draw(st.integers(2, 3))):
            # (0 1)(2 3)...(2k-2 2k-1), fixing the points from 2k on
            k = draw(st.integers(1, n // 2))
            swaps = [x ^ 1 if x < 2 * k else x for x in range(n)]
            gens.append(_relabel(swaps, draw(st.permutations(range(n)))))
        if draw(st.booleans()):
            gens.append(list(draw(st.permutations(range(n)))))
    elif kind == "intransitive":
        n = draw(st.integers(13, 24))
        cuts = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=2,
                             unique=True))
        bounds = [0, *sorted(cuts), n]
        blocks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        gens = [[y for block in blocks for y in draw(st.permutations(block))]
                for _ in range(count)]
    elif kind == "imprimitive":
        n = draw(st.sampled_from([14, 15, 16, 18, 20, 21, 22, 24]))
        k = draw(st.sampled_from([d for d in range(2, n) if n % d == 0]))
        m = n // k
        gens = []
        for _ in range(count):
            sigma = draw(st.permutations(range(m)))
            gens.append([sigma[b] * k + x for b in range(m)
                         for x in draw(st.permutations(range(k)))])
    pi = draw(st.permutations(range(n)))
    return n, [_relabel(images, pi) for images in gens]


@settings(max_examples=40, deadline=None)
@given(large_generator_sets(), st.integers(0, 2**32 - 1))
def test_order_and_membership_match_sympy_on_random_generator_sets(case, seed):
    n, gens = case
    G = PermGroup([Permutation(images) for images in gens], n)
    S = _sympy_group(gens)
    assert G.order() == S.order()
    rng = random.Random(seed)
    for _ in range(6):
        p = Permutation.identity(n)
        for _ in range(rng.randint(1, 12)):
            p = p * rng.choice(G.generators)
        a, b = rng.sample(range(n), 2)
        for q in (p, p * Permutation.from_cycles(n, [(a, b)])):
            assert G.contains(q) == S.contains(
                combinatorics.Permutation(list(q.images)))
        assert G.contains(p)
