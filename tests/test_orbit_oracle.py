"""Primitivity and faithfulness on random small groups, against brute force.

``is_primitive`` reads the least block through alpha and beta as the orbit
of alpha under <G_alpha, u> with u(alpha) = beta; ``is_faithful_on`` builds
the image's chain to stop at |G|. Both are checked here against exhaustive
oracles: every block system of an orbit, and the distinct restrictions of
every group element to a set.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from oracles import brute_elements, brute_is_primitive
from qtperm.analysis import analyze, is_faithful_on, is_primitive, orbits
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


@SETTINGS
@given(structured_groups(), st.data())
def test_faithful_matches_image_size(G, data):
    elements = _elements(G)
    found = orbits(G).orbits
    chosen = data.draw(st.lists(st.sampled_from(found), unique=True))
    for points in [*found, sorted(p for o in chosen for p in o)]:
        image = {tuple(g(p) for p in points) for g in elements}
        assert is_faithful_on(G, points) == (len(image) == len(elements))
