"""Chains built after another chain of the same group is cached.

``PermGroup.chain`` hands the order of a cached chain to ``build_chain``,
which then stops once its transversal lengths multiply to it, and ``contains``
sifts its argument forward by base images without inverting it. Both are
checked here against a fresh ``build_chain`` and against membership in the
brute-force closure.
"""

import random

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from oracles import CLOSURE_CAP, brute_elements
from qtperm.group import PermGroup, build_chain
from qtperm.perm import Permutation
from qtperm.verifier import default_catalog


def _basic_orbits(chain):
    return [set(t) for t in chain.transversals]


def _assert_matches_fresh(G, prefix):
    chain = G.chain(prefix)
    fresh = build_chain(G.generators, G.degree, prefix)
    assert chain.order() == fresh.order()
    assert chain.base == fresh.base
    assert _basic_orbits(chain) == _basic_orbits(fresh)


def _samples(elements, degree, rng, count=12):
    """Random permutations, random group elements and their neighbours."""
    out = [Permutation(rng.sample(range(degree), degree)) for _ in range(count)]
    for g in rng.sample(elements, min(count, len(elements))):
        out.append(g)
        if degree >= 2:
            a, b = rng.sample(range(degree), 2)
            out.append(g * Permutation.from_cycles(degree, [(a, b)]))
    return out


def _assert_membership(G, elements, rng):
    members = {g.images for g in elements}
    for p in _samples(elements, G.degree, rng):
        assert G.contains(p) == (p.images in members)


def _small_catalog_actions():
    return [a for entry in default_catalog() for a in entry.actions
            if a.group.order() <= CLOSURE_CAP]


def test_catalog_chains_after_a_cached_chain_match_fresh_builds():
    actions = _small_catalog_actions()
    assert len(actions) >= 90
    rng = random.Random(7)
    for action in actions:
        gens, n = action.group.generators, action.degree
        for first, second in (((), (n - 1,)), ((n - 1,), ())):
            G = PermGroup(gens, n)
            G.chain(first)
            _assert_matches_fresh(G, second)
            _assert_membership(G, brute_elements(gens, n), rng)


@st.composite
def generator_sets(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    perm = st.permutations(range(n)).map(Permutation)
    gens = draw(st.lists(perm, min_size=1, max_size=3))
    points = st.lists(st.integers(0, n - 1), max_size=min(n, 3), unique=True)
    return n, gens, tuple(draw(points)), tuple(draw(points))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(generator_sets(), st.integers(0, 2**32 - 1))
def test_random_chains_after_a_cached_chain_match_fresh_builds(case, seed):
    n, gens, first, second = case
    try:
        elements = brute_elements(gens, n)
    except ValueError:
        assume(False)
    G = PermGroup(gens, n)
    G.chain(first)
    _assert_matches_fresh(G, second)
    assert G.order() == len(elements)
    rng = random.Random(seed)
    _assert_membership(G, elements, rng)
    # a point stabilizer answers from the tail of G's chain
    alpha = rng.randrange(n)
    stab = G.point_stabilizer(alpha)
    fixing = [g for g in elements if g(alpha) == alpha]
    assert stab.order() == len(fixing)
    _assert_membership(stab, fixing, rng)


def test_elements_order_does_not_depend_on_cached_chains():
    # the dihedral search, and so the coset labels the goldens pin, read
    # elements() in this order
    actions = [a for entry in default_catalog() for a in entry.actions
               if a.group.order() <= 2000]
    assert len(actions) >= 90
    for action in actions:
        gens, n = action.group.generators, action.degree
        expected = [g.images for g in PermGroup(gens, n).elements()]
        for k in (0, n - 1):
            G = PermGroup(gens, n)
            G.chain((k,))
            assert [g.images for g in G.elements()] == expected
