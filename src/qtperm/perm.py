"""Permutations of {0, ..., n-1} stored as immutable image tuples."""

from __future__ import annotations

import math
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Sequence


# the image type of nearly every permutation, tested before any subclass
_INT = frozenset([int])


@lru_cache(maxsize=None)
def _identity_images(n: int) -> tuple[int, ...]:
    """The ints every image tuple is built from, so that equal images are
    the same objects and tuple ``==`` and ``index`` compare by identity."""
    return tuple(range(n))


def compose_with(images: tuple) -> Callable[[tuple], tuple]:
    """The map from q's images to those of p * q, for p with ``images``."""
    if len(images) < 2:
        # itemgetter returns a bare item for one index and needs at least one
        return lambda other: tuple(other[x] for x in images)
    return itemgetter(*images)


class Permutation:
    """An invertible self-map of {0, ..., n-1}.

    ``images[x]`` is the point ``x`` maps to.  Products are read left to
    right: ``(p * q)(x) == q(p(x))``.  This convention is fixed project-wide
    and pinned by a golden test.
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        # types first, so that min and max compare only ints; n distinct
        # ints in 0..n-1 are a bijection
        if (not (_INT.issuperset(map(type, images))
                 or all(issubclass(t, int) and not issubclass(t, bool)
                        for t in set(map(type, images))))
                or len(set(images)) != n
                or n and (min(images) < 0 or max(images) >= n)):
            raise ValueError(f"not a bijection of 0..{n - 1}: {images!r}")
        self.images = compose_with(images)(_identity_images(n))

    @staticmethod
    def _unchecked(images: tuple) -> "Permutation":
        # fast path for internal code that already holds a valid image tuple
        p = object.__new__(Permutation)
        p.images = images
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._unchecked(_identity_images(n))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build from disjoint cycles; repeated or out-of-range points raise."""
        identity = _identity_images(n)
        images = list(identity)
        used = set()
        for cycle in cycles:
            for x in cycle:
                if not 0 <= x < n:
                    raise ValueError(f"point {x} out of range 0..{n - 1}")
                if x in used:
                    raise ValueError(f"point {x} repeated across cycles")
                used.add(x)
            for a, b in zip(cycle, cycle[1:]):
                images[a] = identity[b]
            if cycle:
                images[cycle[-1]] = identity[cycle[0]]
        return cls._unchecked(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self.images) != len(other.images):
            raise ValueError("degree mismatch")
        return Permutation._unchecked(compose_with(self.images)(other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in zip(_identity_images(len(self.images)), self.images):
            inv[j] = i
        return Permutation._unchecked(tuple(inv))

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation.identity(len(self.images))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_identity(self) -> bool:
        return self.images == _identity_images(len(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point, sorted."""
        seen = set()
        out = []
        for i in range(len(self.images)):
            if i in seen or self.images[i] == i:
                continue
            cycle = [i]
            j = self.images[i]
            while j != i:
                seen.add(j)
                cycle.append(j)
                j = self.images[j]
            out.append(tuple(cycle))
        return out

    def order(self) -> int:
        return math.lcm(1, *(len(c) for c in self.cycles()))

    def first_moved_point(self) -> int | None:
        for i, j in enumerate(self.images):
            if i != j:
                return i
        return None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return f"Permutation.identity({len(self.images)})"
        text = "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)
        return f"<Permutation deg={len(self.images)} {text}>"
