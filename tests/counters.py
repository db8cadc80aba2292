"""Work counters for the tests that pin how many products a routine makes."""

from __future__ import annotations

from qtperm import group
from qtperm.perm import Permutation


def count_products(monkeypatch) -> list:
    """A list that gains one item per product of two permutations.

    The products are ``Permutation.__mul__`` calls, and the applications of
    the ``compose_with`` maps made in ``qtperm.group`` to image tuples of
    the map's own length. Schreier generators, sift strips, involution
    tests and chain enumerations compose image tuples that way. A map of a
    basic orbit's points reads images there and is not a product.
    """
    calls = []
    mul = Permutation.__mul__
    compose_with = group.compose_with

    def counting_mul(p, q):
        calls.append(None)
        return mul(p, q)

    def counting_compose_with(images):
        times = compose_with(images)

        def counted(other):
            if len(other) == len(images):
                calls.append(None)
            return times(other)

        return counted

    monkeypatch.setattr(Permutation, "__mul__", counting_mul)
    monkeypatch.setattr(group, "compose_with", counting_compose_with)
    return calls
