"""Chains against a fresh build and against the textbook algorithm.

``PermGroup.chain`` hands the order of a cached chain to ``build_chain``,
which then stops once its transversal lengths multiply to it, and ``contains``
sifts its argument forward by base images without inverting it. Both are
checked here against a fresh ``build_chain`` and against membership in the
brute-force closure. ``StabilizerChain.elements`` is checked against the
recursive enumeration, element by element. ``build_chain`` itself skips
the Schreier generators it can prove trivial; its chains are checked
against a Schreier-Sims that sifts every one of them.
"""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from oracles import (CLOSURE_CAP, brute_elements, chain_elements,
                     plain_schreier_sims)
from qtperm.constructions import pgammal2_cosets, psl2_cosets
from qtperm.genfile import GeneratorFile, format_generators, parse_generators
from qtperm.group import PermGroup, build_chain
from qtperm.perm import Permutation
from qtperm.verifier import SweepConfig, default_catalog


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


def test_chain_elements_match_the_recursive_enumeration():
    # the coset labels in the goldens read this order, through the torus
    # search and the sorted elements of the regular actions
    actions = [a for entry in default_catalog(SweepConfig(include_q32=True))
               for a in entry.actions if a.group.order() <= 2000]
    assert len(actions) >= 50
    chains = [PermGroup(a.group.generators, a.degree).chain(prefix)
              for a in actions for prefix in ((), (a.degree - 1,))]
    chains.append(PermGroup([Permutation.identity(1)], 1).chain())
    for chain in chains:
        for level in range(len(chain.base) + 1):
            assert list(chain.elements(level)) == list(
                chain_elements(chain, level))


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


def _assert_matches_plain(gens, n, prefix):
    chain = build_chain(gens, n, prefix)
    base, strong, trans = plain_schreier_sims(gens, n, prefix)
    assert chain.base == tuple(base)
    assert [[g.images for g in t.gens] for t in chain.transversals] + [[]] \
        == [[g.images for g in level] for level in strong]
    # the same trees, in the same breadth-first order, with the same elements
    assert [[(gamma, t[gamma].images) for gamma in t]
            for t in chain.transversals] == \
        [[(gamma, u.images) for gamma, u in t.items()] for t in trans]


def _involution(n, pairs, pi):
    """(pi[0] pi[1])(pi[2] pi[3])... with ``pairs`` transpositions."""
    return Permutation.from_cycles(
        n, [(pi[2 * k], pi[2 * k + 1]) for k in range(pairs)])


@st.composite
def involution_sets(draw):
    """1-4 generators of degree 2-14, mostly involutions with fixed points."""
    n = draw(st.integers(min_value=2, max_value=14))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        pi = draw(st.permutations(range(n)))
        if draw(st.integers(0, 3)):
            gens.append(_involution(n, draw(st.integers(1, n // 2)), pi))
        else:
            gens.append(Permutation(pi))
    points = st.lists(st.integers(0, n - 1), max_size=2, unique=True)
    return n, gens, tuple(draw(points))


@settings(max_examples=80, deadline=None)
@given(involution_sets())
def test_random_chains_match_a_scan_that_sifts_every_schreier_generator(case):
    n, gens, prefix = case
    _assert_matches_plain(gens, n, prefix)


@pytest.mark.parametrize("build", [psl2_cosets, pgammal2_cosets],
                         ids=["psl2_cosets(5)", "pgammal2_cosets(5)"])
def test_q32_coset_chains_match_a_scan_that_sifts_every_schreier_generator(
        build):
    # two of the three and four generators are involutions
    action = build(5)
    _assert_matches_plain(action.group.generators, action.degree, (0,))


def _relabelled_file_text(action, rng):
    """The action's generators under a random point relabelling, shuffled,
    as a generator file."""
    n = action.degree
    sigma = rng.sample(range(n), n)
    gens = []
    for g in action.group.generators:
        images = [0] * n
        for x, y in enumerate(g.images):
            images[sigma[x]] = sigma[y]
        gens.append(Permutation(images))
    rng.shuffle(gens)
    return format_generators(GeneratorFile(n, tuple(gens)))


@pytest.mark.parametrize("build", [psl2_cosets, pgammal2_cosets],
                         ids=["psl2_cosets(5)", "pgammal2_cosets(5)"])
def test_relabelled_q32_coset_files_match_a_scan_that_sifts_every_one(build):
    # the shape of a generator file read by analyze: the same actions under
    # a random labelling, with the generators shuffled
    rng = random.Random(f"relabelled {build.__name__}")
    gfile = parse_generators(_relabelled_file_text(build(5), rng))
    _assert_matches_plain(list(gfile.perms), gfile.degree, (0,))


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
