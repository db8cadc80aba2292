"""Differential checks against sympy's permutation groups.

sympy is a second, independent engine. It reaches actions the brute-force
oracles cannot, such as primitivity above degree 12, and guards the
one-point-per-suborbit shortcut in ``is_primitive``.
"""

import pytest

from qtperm.analysis import is_primitive, orbits, subdegrees
from qtperm.constructions import (action_on_k_subsets, affine_frobenius,
                                  alternating_group, coset_action,
                                  cyclic_group, dihedral_group, disjoint_sum,
                                  pgammal2_cosets, psl2_cosets, regular_action,
                                  symmetric_group)
from qtperm.group import PermGroup

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
            # pointwise_stabilizer, not stabilizer(alpha).order(): that one
            # runs Schreier-Sims on every Schreier generator, about 2 s a
            # point on PGammaL2(32) on 496 cosets
            assert G.point_stabilizer(alpha).order() == \
                S.pointwise_stabilizer([alpha]).order()
        if len(orbit) < 2:
            continue
        alpha, beta = orbit[-1], orbit[len(orbit) // 3]
        assert G.two_point_stabilizer_order(alpha, beta) == \
            S.pointwise_stabilizer([alpha, beta]).order()
        index = {p: i for i, p in enumerate(orbit)}
        restricted = _sympy_group(
            [index[g(p)] for p in orbit] for g in G.generators)
        assert is_primitive(G, orbit) == restricted.is_primitive()
