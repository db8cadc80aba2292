from itertools import product

import pytest

from qtperm.gf2 import IRREDUCIBLE, GF2Field

SHIPPED = sorted(IRREDUCIBLE)


@pytest.mark.parametrize("f", SHIPPED)
def test_field_axioms_exhaustive(f):
    F = GF2Field(f)
    q = F.q
    elems = range(q)
    for a, b in product(elems, repeat=2):
        assert a ^ b == b ^ a
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(a, b) < q
    for a, b, c in product(range(0, q, 3), repeat=3):
        assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
        assert F.mul(a, b ^ c) == F.mul(a, b) ^ F.mul(a, c)
    for a in elems:
        assert a ^ a == 0
        assert F.mul(a, 1) == a
        assert F.mul(a, 0) == 0


@pytest.mark.parametrize("f", SHIPPED)
def test_inverses(f):
    F = GF2Field(f)
    for a in range(1, F.q):
        assert F.mul(a, F.inv(a)) == 1


def test_primitive_element_orders():
    for f in SHIPPED:
        F = GF2Field(f)
        assert F.multiplicative_order(2) == F.q - 1
        assert F.primitive_element() == 2


def test_pow_matches_repeated_mul():
    F = GF2Field(3)
    for a in range(1, F.q):
        acc = 1
        for k in range(10):
            assert F.pow(a, k) == acc
            acc = F.mul(acc, a)


def test_unsupported_exponent_rejected():
    with pytest.raises(ValueError, match="shipped: 2, 3, 4, 5, 6, 7"):
        GF2Field(8)
