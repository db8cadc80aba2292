"""Primitivity and faithfulness on random small groups, against brute force.

``is_primitive`` reads the least block through alpha and beta as the orbit
of alpha under <G_alpha, u> with u(alpha) = beta. ``is_faithful_on`` decides
faithfulness on an invariant set X by the image of G_a on X, for a the least
point of X: the kernel on X lies in G_a, so G is faithful on X exactly when
that image has order |G_a|, and its chain is built to stop there. Both are
checked here against exhaustive oracles: every block system of an orbit,
and the distinct restrictions of every group element to a set.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from oracles import brute_elements, brute_is_primitive
from qtperm.analysis import analyze, is_faithful_on, is_primitive, orbits
from qtperm.constructions import disjoint_sum, regular_action, symmetric_group
from qtperm.group import PermGroup
from qtperm.perm import Permutation


@st.composite
def structured_groups(draw):
    """Groups of degree 2..10 that are often intransitive or imprimitive.

    The points are cut into consecutive chunks, and each chunk into blocks
    of one size b. Every generator permutes the blocks of each chunk and
    the points inside each block, so the blocks form a block system; b = 1
    or b = the chunk size gives no such restriction.
    """
    n = draw(st.integers(2, 10))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=2)))
    chunks = [range(lo, hi) for lo, hi in zip([0] + cuts, cuts + [n])]
    sizes = [draw(st.sampled_from([b for b in range(1, len(c) + 1)
                                   if len(c) % b == 0])) for c in chunks]
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        images = []
        for chunk, b in zip(chunks, sizes):
            blocks = draw(st.permutations(range(len(chunk) // b)))
            for i in range(len(chunk) // b):
                inside = draw(st.permutations(range(b)))
                images.extend(chunk[0] + blocks[i] * b + j for j in inside)
        gens.append(Permutation(images))
    return PermGroup(gens, n)


def _elements(G):
    try:
        return brute_elements(G.generators, G.degree)
    except ValueError:
        assume(False)


SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much,
                                           HealthCheck.too_slow])


@SETTINGS
@given(structured_groups())
def test_primitive_matches_every_block_system(G):
    elements = _elements(G)
    flags = {r.points: r.primitive for r in analyze(G).orbit_reports}
    for orbit in orbits(G).orbits:
        if len(orbit) < 2:
            continue
        expected = brute_is_primitive(elements, orbit)
        assert is_primitive(G, orbit) == expected
        assert flags[orbit] == expected


def _brute_faithful(elements, points):
    image = {tuple(g(p) for p in points) for g in elements}
    return len(image) == len(elements)


@SETTINGS
@given(structured_groups(), st.data())
def test_faithful_matches_image_size(G, data):
    elements = _elements(G)
    found = orbits(G).orbits
    chosen = data.draw(st.lists(st.sampled_from(found), unique=True))
    for points in [*found, sorted(p for o in chosen for p in o)]:
        assert is_faithful_on(G, points) == _brute_faithful(elements, points)


# Sets X of two or three orbits, none the whole domain and none holding
# point 0. With x = (0 1)(2 3), y = (2 3)(4 5) and z = (4 5)(6 7) the group
# is C2^3, faithful on {2..7} though each of its orbits alone has a kernel;
# with x = (0 1) instead, x is the kernel on {2..7}. The regular C2 x C2 on
# {0..3} gives point 0 a trivial stabilizer, yet b = (0 2)(1 3) is the
# kernel on {4..7}, so a test that read G_0 instead of G_a would err.
FAITHFUL_CASES = [
    ("two-orbit-kernels-meet-trivially", 6,
     [[(0, 1), (2, 3)], [(0, 1), (4, 5)]], [2, 3, 4, 5], True),
    ("two-orbit-kernel-moves-0", 6,
     [[(0, 1)], [(2, 3), (4, 5)]], [2, 3, 4, 5], False),
    ("two-orbit-kernel-beside-regular", 8,
     [[(0, 1), (2, 3), (4, 5), (6, 7)], [(0, 2), (1, 3)]], [4, 5, 6, 7],
     False),
    ("three-orbit-kernels-meet-trivially", 8,
     [[(0, 1), (2, 3)], [(2, 3), (4, 5)], [(4, 5), (6, 7)]],
     [2, 3, 4, 5, 6, 7], True),
    ("three-orbit-kernel-moves-0", 8,
     [[(0, 1)], [(2, 3), (4, 5)], [(4, 5), (6, 7)]], [2, 3, 4, 5, 6, 7],
     False),
    ("empty-set-trivial-group", 3, [[]], [], True),
    ("empty-set-nontrivial-group", 3, [[(0, 1, 2)]], [], False),
]


@pytest.mark.parametrize("degree, cycles, points, expected",
                         [case[1:] for case in FAITHFUL_CASES],
                         ids=[case[0] for case in FAITHFUL_CASES])
def test_faithful_on_unions_of_orbits(degree, cycles, points, expected):
    G = PermGroup([Permutation.from_cycles(degree, c) for c in cycles],
                  degree)
    elements = brute_elements(G.generators, degree)
    assert _brute_faithful(elements, points) == expected
    assert is_faithful_on(G, points) == expected
    # on each orbit of X alone the kernel is nontrivial, and X is not the
    # whole domain, so the answer comes from G_a's image on X
    for orbit in orbits(G).orbits:
        if set(orbit) <= set(points):
            assert not is_faithful_on(G, orbit)


def test_faithful_on_a_regular_summand():
    # |G_a| = 1 on the regular summand, so no kernel can hide there
    s3 = symmetric_group(3)
    G = disjoint_sum([s3, regular_action(s3)]).group
    regular = range(3, 9)
    assert G.chain((3,)).order(1) == 1
    elements = brute_elements(G.generators, G.degree)
    for points in (range(3), regular):
        assert is_faithful_on(G, points) and _brute_faithful(elements, points)
