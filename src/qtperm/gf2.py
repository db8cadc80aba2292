"""GF(2^f) in polynomial basis with fixed irreducible polynomials."""

from __future__ import annotations

# Fixed moduli keep all downstream permutations bit-stable across runs.
IRREDUCIBLE = {
    2: 0b111,         # x^2 + x + 1
    3: 0b1011,        # x^3 + x + 1
    4: 0b10011,       # x^4 + x + 1
    5: 0b100101,      # x^5 + x^2 + 1
    6: 0b1000011,     # x^6 + x + 1
    7: 0b10000011,    # x^7 + x + 1
}


class GF2Field:
    """Field with 2^f elements; elements are ints in 0..2^f-1 (bit vectors)."""

    def __init__(self, f: int):
        if f not in IRREDUCIBLE:
            raise ValueError(f"unsupported extension degree f={f}; shipped: "
                             + ", ".join(map(str, sorted(IRREDUCIBLE))))
        self.f = f
        self.q = 1 << f
        self.modulus = IRREDUCIBLE[f]

    def mul(self, a: int, b: int) -> int:
        result = 0
        while b:
            if b & 1:
                result ^= a
            a <<= 1
            if a & self.q:
                a ^= self.modulus
            b >>= 1
        return result

    def pow(self, a: int, n: int) -> int:
        result = 1
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(a, self.q - 2)

    def multiplicative_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        x, k = a, 1
        while x != 1:
            x = self.mul(x, a)
            k += 1
        return k

    def primitive_element(self) -> int:
        # x itself; verified against the group order for the shipped moduli
        a = 0b10
        if self.multiplicative_order(a) != self.q - 1:
            raise AssertionError("x is not primitive for the shipped modulus")
        return a
