import enum
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtperm.constructions import psl2, psl2_cosets, regular_action
from qtperm.genfile import (GeneratorFile, format_generators,
                            parse_generators)
from qtperm.group import PermGroup, _is_involution
from qtperm.perm import Permutation, _identity_images, compose_with


def perms(max_degree=8):
    return st.integers(min_value=1, max_value=max_degree).flatmap(
        lambda n: st.permutations(range(n)).map(
            lambda imgs: Permutation(tuple(imgs))))


def pairs_same_degree(max_degree=8):
    return st.integers(min_value=1, max_value=max_degree).flatmap(
        lambda n: st.tuples(
            st.permutations(range(n)).map(lambda i: Permutation(tuple(i))),
            st.permutations(range(n)).map(lambda i: Permutation(tuple(i)))))


def test_compose_left_to_right_golden():
    # [DERIVED] (0 1) then (1 2) sends 0->1->2, so images are (2, 0, 1)
    p = Permutation.from_cycles(3, [(0, 1)])
    q = Permutation.from_cycles(3, [(1, 2)])
    assert (p * q).images == (2, 0, 1)
    assert (p * q) == Permutation.from_cycles(3, [(0, 2, 1)])


def test_three_cycle_squared():
    c = Permutation.from_cycles(3, [(0, 1, 2)])
    assert c * c == Permutation.from_cycles(3, [(0, 2, 1)])
    assert c ** 3 == Permutation.identity(3)


def test_call_applies_image():
    p = Permutation((1, 2, 0))
    assert [p(i) for i in range(3)] == [1, 2, 0]


def test_init_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((0, 3, 1))
    with pytest.raises(ValueError):
        Permutation((True, False))


class Colour(enum.IntEnum):
    RED = 0
    GREEN = 1


def _loop_accepts(images):
    """The point-by-point bijection check, the reference for ``__init__``."""
    seen = [False] * len(images)
    for x in images:
        if (not isinstance(x, int) or isinstance(x, bool)
                or not 0 <= x < len(images) or seen[x]):
            return False
        seen[x] = True
    return True


@pytest.mark.parametrize("images, accepted", [
    pytest.param((True, False), False, id="bool"),
    pytest.param((1, 0, True), False, id="bool-among-ints"),
    pytest.param((0.0, 1), False, id="float"),
    pytest.param(("0", 1), False, id="str"),
    pytest.param((-1, 0), False, id="negative"),
    pytest.param((0, 2), False, id="n"),
    pytest.param((0, 0, 1), False, id="duplicate"),
    pytest.param((), True, id="empty"),
    pytest.param((Colour.GREEN, Colour.RED), True, id="IntEnum"),
    pytest.param((2, 0, 1), True, id="ints"),
])
def test_init_validation_table(images, accepted):
    assert _loop_accepts(images) == accepted
    if accepted:
        assert Permutation(images).images == images
    else:
        with pytest.raises(ValueError) as raised:
            Permutation(iter(images))
        assert str(raised.value) == \
            f"not a bijection of 0..{len(images) - 1}: {images!r}"


@given(st.lists(st.integers(min_value=-1, max_value=6), max_size=6))
def test_init_accepts_what_the_loop_check_accepts(images):
    images = tuple(images)
    if _loop_accepts(images):
        assert Permutation(images).images == images
    else:
        with pytest.raises(ValueError, match="not a bijection"):
            Permutation(images)


def test_from_cycles_rejects_bad_cycles():
    with pytest.raises(ValueError):
        Permutation.from_cycles(4, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(0, 5)])


def test_cycles_round_trip_and_order():
    p = Permutation.from_cycles(6, [(0, 1), (2, 3, 4)])
    assert p.cycles() == [(0, 1), (2, 3, 4)]
    assert p.order() == 6
    assert Permutation.identity(4).cycles() == []
    assert Permutation.identity(4).order() == 1


def test_first_moved_point():
    assert Permutation.identity(5).first_moved_point() is None
    assert Permutation.from_cycles(5, [(2, 4)]).first_moved_point() == 2


@given(perms())
def test_inverse_property(p):
    n = p.degree
    assert p * p.inverse() == Permutation.identity(n)
    assert p.inverse() * p == Permutation.identity(n)


@given(pairs_same_degree())
def test_composition_pointwise(pq):
    p, q = pq
    for x in range(p.degree):
        assert (p * q)(x) == q(p(x))


@given(perms())
def test_pow_matches_repeated_product(p):
    acc = Permutation.identity(p.degree)
    for k in range(4):
        assert p ** k == acc
        acc = acc * p
    assert p ** -1 == p.inverse()


@given(perms())
def test_order_annihilates(p):
    assert (p ** p.order()).is_identity()
    assert p.order() >= 1


@pytest.mark.parametrize("n", [0, 1])
def test_kernel_at_degrees_zero_and_one(n):
    # itemgetter-based products need a guard below degree 2; compose_with
    # holds it for the product, the involution test and the enumeration
    e = Permutation.identity(n)
    assert compose_with(e.images)(e.images) == tuple(range(n))
    assert (e * e).images == tuple(range(n))
    assert _is_involution(e)
    assert list(PermGroup([e], n).elements()) == [e]
    assert e.inverse() == e
    assert e.is_identity()
    assert e ** 5 == e ** -3 == e ** 0 == e


def test_product_is_a_tuple_at_degree_two():
    swap = Permutation((1, 0))
    assert (swap * swap).images == (0, 1)
    assert (swap * Permutation.identity(2)).images == (1, 0)


@pytest.mark.parametrize("m, n", [(0, 1), (1, 0), (1, 2), (3, 2)])
def test_product_rejects_degree_mismatch(m, n):
    with pytest.raises(ValueError, match="degree mismatch"):
        Permutation.identity(m) * Permutation.identity(n)


def test_is_identity_compares_every_point():
    assert not Permutation.from_cycles(5, [(3, 4)]).is_identity()
    assert Permutation((0, 1, 2, 3, 4)).is_identity()


def _shares_identity_ints(p):
    identity = _identity_images(p.degree)
    return all(x is identity[x] for x in p.images)


def test_images_share_the_identity_ints():
    # above 256, CPython makes a new int object for each int computed, so
    # equal images are the same objects only if they are built from the
    # identity's items; tuple == and index then stop at the first identical
    # item instead of comparing values
    n = 300
    rng = random.Random(3)
    images = [int(str(x)) for x in rng.sample(range(n), n)]
    assert not all(x is _identity_images(n)[x] for x in images)
    p = Permutation(images)
    q = Permutation.from_cycles(n, [[int(str(x)) for x in rng.sample(
        range(n), 50)], [int(str(x)) for x in range(n - 3, n)]])
    for r in (p, q, p.inverse(), p * q, q * p.inverse(), p ** 3):
        assert _shares_identity_ints(r)
    text = format_generators(GeneratorFile(n, (p, q)))
    image_list = f"degree {n}\n[{', '.join(str(x + 1) for x in images)}]\n"
    for parsed in (parse_generators(text), parse_generators(image_list)):
        assert parsed.perms[0] == p
        assert all(map(_shares_identity_ints, parsed.perms))
    for action in (psl2_cosets(5), regular_action(psl2(3))):
        assert action.degree > 256
        assert all(map(_shares_identity_ints, action.group.generators))
