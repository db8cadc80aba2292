"""Permutation groups backed by deterministic Schreier-Sims stabilizer chains."""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from .perm import Permutation


class StabilizerChain:
    """A base, per-level transversals and strong generators.

    Level ``i`` stabilizes ``base[:i]``; ``transversals[i]`` maps each point
    ``gamma`` in the basic orbit of ``base[i]`` to a representative ``u`` with
    ``u(base[i]) == gamma``.  ``strong_gens[i]`` generates the pointwise
    stabilizer of ``base[:i]``; ``strong_gens[len(base)]`` is always empty.
    """

    __slots__ = ("degree", "base", "transversals", "strong_gens")

    def __init__(self, degree, base, transversals, strong_gens):
        self.degree = degree
        self.base = tuple(base)
        self.transversals = transversals
        self.strong_gens = strong_gens

    def order(self) -> int:
        return math.prod(len(t) for t in self.transversals)

    def transversal_sizes(self) -> tuple[int, ...]:
        return tuple(len(t) for t in self.transversals)

    def sift_from(self, p: Permutation, start: int) -> tuple[Permutation, int]:
        """Strip p from level ``start``; return the residue and the level reached."""
        base, transversals = self.base, self.transversals
        for i in range(start, len(base)):
            gamma = p(base[i])
            trans = transversals[i]
            if gamma not in trans:
                return p, i
            p = p * trans[gamma].inverse()
        return p, len(base)

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise ValueError("degree mismatch")
        return self.sift_from(p, 0)[0].is_identity()

    def stabilizer_order_from(self, level: int) -> int:
        """Order of the pointwise stabilizer of ``base[:level]``."""
        return math.prod(len(t) for t in self.transversals[level:])

    def generators_fixing(self, level: int) -> list[Permutation]:
        if level >= len(self.strong_gens):
            return []
        return list(self.strong_gens[level])

    def elements(self) -> Iterator[Permutation]:
        """All group elements in a deterministic chain-enumeration order."""

        def rec(i):
            if i == len(self.base):
                yield Permutation.identity(self.degree)
                return
            for gamma in sorted(self.transversals[i]):
                u = self.transversals[i][gamma]
                for s in rec(i + 1):
                    yield s * u

        return rec(0)


def schreier_tree(
    gens: Sequence[Permutation], alpha: int,
) -> dict[int, tuple[int, Permutation] | None]:
    """Breadth-first orbit of ``alpha`` under ``gens``.

    Maps each orbit point, in the order reached, to the edge ``(a, g)`` with
    ``g(a)`` equal to that point; ``alpha`` maps to ``None``.
    """
    tree: dict[int, tuple[int, Permutation] | None] = {alpha: None}
    queue = [alpha]
    for a in queue:
        for g in gens:
            b = g(a)
            if b not in tree:
                tree[b] = (a, g)
                queue.append(b)
    return tree


def orbit_partition(gens: Sequence[Permutation],
                    points: Iterable[int]) -> list[list[int]]:
    """The orbits of ``<gens>`` through ``points``, in the order first met.

    Each orbit is listed breadth-first from its first point in ``points``.
    """
    seen: set[int] = set()
    parts = []
    for p in points:
        if p not in seen:
            orbit = list(schreier_tree(gens, p))
            seen.update(orbit)
            parts.append(orbit)
    return parts


def build_chain(
    generators: Sequence[Permutation],
    degree: int,
    base_prefix: Sequence[int] = (),
) -> StabilizerChain:
    """Deterministic Schreier-Sims.  The base starts with ``base_prefix``."""
    for b in base_prefix:
        if not 0 <= b < degree:
            raise ValueError(f"base point {b} out of range")
    if len(set(base_prefix)) != len(base_prefix):
        raise ValueError("base prefix points must be distinct")

    gens: list[Permutation] = []
    for g in generators:
        if g.degree != degree:
            raise ValueError("degree mismatch among generators")
        if not g.is_identity() and g not in gens:
            gens.append(g)

    base: list[int] = list(base_prefix)
    for g in gens:
        if all(g(b) == b for b in base):
            base.append(g.first_moved_point())

    identity = Permutation.identity(degree)
    if not base:
        return StabilizerChain(degree, (), [], [[]])

    def first_moved_base(g: Permutation) -> int:
        for i, b in enumerate(base):
            if g(b) != b:
                return i
        return len(base)

    strong: list[list[Permutation]] = [[] for _ in range(len(base) + 1)]
    for g in gens:
        k = first_moved_base(g)
        for i in range(k + 1):
            strong[i].append(g)

    transversals: list[dict[int, Permutation]] = [dict() for _ in base]
    chain = StabilizerChain(degree, base, transversals, strong)

    def compute_transversal(i: int) -> None:
        trans: dict[int, Permutation] = {}
        for b, edge in schreier_tree(strong[i], chain.base[i]).items():
            trans[b] = identity if edge is None else trans[edge[0]] * edge[1]
        transversals[i] = trans

    for i in range(len(base)):
        compute_transversal(i)

    # Work from the deepest level up; the invariant is that all strictly
    # deeper levels are complete whenever level i is processed.  Every
    # change to strong[l] recomputes transversals[l] at once, so each
    # transversal is current whenever its level is read.
    i = len(base) - 1
    while i >= 0:
        trans = transversals[i]
        complete = True
        for gamma in sorted(trans):
            u = trans[gamma]
            for g in strong[i]:
                delta = g(gamma)
                schreier = u * g * trans[delta].inverse()
                if schreier.is_identity():
                    continue
                residue, j = chain.sift_from(schreier, i + 1)
                if residue.is_identity():
                    continue
                complete = False
                if j == len(chain.base):
                    chain.base += (residue.first_moved_point(),)
                    strong.append([])
                    transversals.append(dict())
                for level in range(i + 1, j + 1):
                    strong[level].append(residue)
                    compute_transversal(level)
                i = j
                break
            if not complete:
                break
        if complete:
            i -= 1

    return chain


class PermGroup:
    """Group generated by permutations of one degree.

    Immutable after construction; stabilizer chains are built lazily and
    cached per base prefix.
    """

    def __init__(self, generators: Iterable[Permutation], degree: int | None = None):
        gens = tuple(generators)
        if not gens:
            raise ValueError("generator list must be nonempty")
        if degree is None:
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise ValueError("all generators must share the group's degree")
        self.degree = degree
        self.generators = gens
        self._chains: dict[tuple[int, ...], StabilizerChain] = {}

    def chain(self, base_prefix: Sequence[int] = ()) -> StabilizerChain:
        key = tuple(base_prefix)
        chain = self._chains.get(key)
        if chain is None:
            chain = build_chain(self.generators, self.degree, key)
            self._chains[key] = chain
        return chain

    def _any_chain(self) -> StabilizerChain:
        """A cached chain for any base prefix, else the chain for ``()``."""
        for chain in self._chains.values():
            return chain
        return self.chain()

    def order(self) -> int:
        return self._any_chain().order()

    def contains(self, p: Permutation) -> bool:
        return self._any_chain().contains(p)

    def orbit(self, alpha: int) -> list[int]:
        """Orbit of a point, ascending."""
        if not 0 <= alpha < self.degree:
            raise ValueError(f"point {alpha} out of range")
        return sorted(schreier_tree(self.generators, alpha))

    def point_stabilizer(self, alpha: int) -> "PermGroup":
        if not 0 <= alpha < self.degree:
            raise ValueError(f"point {alpha} out of range")
        return self.pointwise_stabilizer((alpha,))

    def pointwise_stabilizer(self, points: Sequence[int]) -> "PermGroup":
        chain = self.chain(tuple(points))
        gens = chain.generators_fixing(len(points))
        if not gens:
            gens = [Permutation.identity(self.degree)]
        return PermGroup(gens, self.degree)

    def two_point_stabilizer_order(self, alpha: int, beta: int) -> int:
        """|G_alpha| / |beta^(G_alpha)|, read from the chain for prefix (alpha,)."""
        if alpha == beta:
            raise ValueError("the two points must be distinct")
        if not 0 <= beta < self.degree:
            raise ValueError(f"point {beta} out of range")
        chain = self.chain((alpha,))
        return chain.stabilizer_order_from(1) // len(
            schreier_tree(chain.generators_fixing(1), beta))

    def elements(self) -> Iterator[Permutation]:
        return self.chain().elements()

    def __repr__(self) -> str:
        return f"<PermGroup deg={self.degree} ngens={len(self.generators)}>"
