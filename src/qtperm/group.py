"""Permutation groups backed by deterministic Schreier-Sims stabilizer chains."""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Sequence

from .perm import Permutation, compose_with


class Transversal(dict):
    """One chain level's generators, Schreier tree and elements.

    ``tree`` is ``schreier_tree(gens, alpha)``.  Iteration, ``len`` and
    ``in`` answer from it, in its breadth-first key order, so they cost no
    product.  ``t[gamma]`` is the element u_gamma with u_gamma(alpha) =
    gamma: on first read it is formed as u_a * g along the tree edge (a, g)
    and kept, so each is formed at most once and is the same permutation
    whenever it is formed.  The dict itself holds only the elements formed
    so far, so reading one is a C-level lookup.  Hot loops test membership
    on ``tree`` and read with ``t[gamma]``; ``dict.get(t, gamma)`` would
    answer None for a point whose element is not formed yet.
    """

    __slots__ = ("tree", "gens", "_at_orbit")

    def __init__(self, gens: Sequence[Permutation], alpha: int, degree: int):
        super().__init__({alpha: Permutation.identity(degree)})
        self.gens = tuple(gens)
        self.tree = schreier_tree(self.gens, alpha)
        self._at_orbit = False

    @property
    def at_orbit(self) -> tuple[tuple[int, ...], Callable] | None:
        """The orbit's points and the getter of images there, or None when
        the orbit is every point; built on the first read."""
        if self._at_orbit is False:
            points = tuple(self.tree)
            self._at_orbit = (
                None if len(points) == len(self[points[0]].images)
                else (points, compose_with(points)))
        return self._at_orbit

    def __missing__(self, gamma: int) -> Permutation:
        # iterative: a cyclic group's tree is one path, as deep as its orbit
        tree, path = self.tree, []
        while (u := dict.get(self, gamma)) is None:
            path.append(gamma)
            gamma = tree[gamma][0]
        for gamma in reversed(path):
            u = u * tree[gamma][1]
            dict.__setitem__(self, gamma, u)
        return u

    def __len__(self) -> int:
        return len(self.tree)

    def __contains__(self, gamma: object) -> bool:
        return gamma in self.tree

    def __iter__(self) -> Iterator[int]:
        return iter(self.tree)

    def keys(self):
        return self.tree.keys()

    def values(self) -> Iterator[Permutation]:
        return map(self.__getitem__, self.tree)

    def items(self) -> Iterator[tuple[int, Permutation]]:
        return ((gamma, self[gamma]) for gamma in self.tree)

    def get(self, gamma: int, default=None):
        return self[gamma] if gamma in self.tree else default


class StabilizerChain:
    """A base and one ``Transversal`` per level.

    Level ``i`` stabilizes ``base[:i]``; ``transversals[i]`` is the
    ``Transversal`` of the basic orbit of ``base[i]``, mapping each point
    ``gamma`` in it to a representative ``u`` with ``u(base[i]) == gamma``,
    and its ``gens`` generate the pointwise stabilizer of ``base[:i]``.
    """

    __slots__ = ("degree", "base", "transversals")

    def __init__(self, degree, base, transversals):
        self.degree = degree
        self.base = tuple(base)
        self.transversals = transversals

    def order(self, level: int = 0) -> int:
        """Order of the pointwise stabilizer of ``base[:level]``."""
        return math.prod(len(t.tree) for t in self.transversals[level:])

    def transversal_sizes(self) -> tuple[int, ...]:
        return tuple(len(t.tree) for t in self.transversals)

    def sift(self, a: tuple, b: tuple, start: int) -> tuple[tuple, int]:
        """Strip r = a b^-1 from level ``start``, a and b given by images.

        r(base[i]) is the point b maps to a(base[i]), and stripping r by a
        transversal element u (r -> r u^-1) is b -> u b, so no level inverts
        anything.  That point is looked for among b's images on the basic
        orbit only; a miss means it lies outside.  Returns the final b and
        the level reached; r sifts to 1 exactly when that b equals a.
        """
        base, transversals = self.base, self.transversals
        for i in range(start, len(base)):
            trans = transversals[i]
            at_orbit = trans.at_orbit
            if at_orbit is None:
                gamma = b.index(a[base[i]])
            else:
                points, at_points = at_orbit
                try:
                    gamma = points[at_points(b).index(a[base[i]])]
                except ValueError:
                    return b, i
            if gamma != base[i]:  # u_beta = 1 strips nothing
                b = compose_with(trans[gamma].images)(b)
        return b, len(base)

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise ValueError("degree mismatch")
        b, _ = self.sift(p.images, Permutation.identity(self.degree).images, 0)
        return b == p.images

    def generators_fixing(self, level: int) -> list[Permutation]:
        return list(self.transversals[level].gens) \
            if level < len(self.transversals) else []

    def elements(self, level: int = 0) -> Iterator[Permutation]:
        """The elements of the pointwise stabilizer of ``base[:level]``.

        They come in a deterministic chain-enumeration order: s * u for u
        in level ``level``'s transversal by ascending point, and s in the
        stabilizer of one more base point, enumerated the same way.  The
        deeper levels are built once, bottom-up, as one ``compose_with``
        map per element, so each element costs one product; the elements
        of level ``level`` itself are formed as they are read.
        """
        if not 0 <= level <= len(self.base):
            raise ValueError(f"level {level} out of range")
        identity = Permutation.identity(self.degree).images

        def images(i):
            if i == len(self.base):
                return [identity]
            trans = self.transversals[i]
            return [trans[gamma].images for gamma in sorted(trans)]

        times = [compose_with(identity)]
        for i in range(len(self.base) - 1, level, -1):
            times = [compose_with(times_s(u))
                     for u in images(i) for times_s in times]
        return (Permutation._unchecked(times_s(u))
                for u in images(level) for times_s in times)


def schreier_tree(
    gens: Sequence[Permutation], alpha: int,
) -> dict[int, tuple[int, Permutation] | None]:
    """Breadth-first orbit of ``alpha`` under ``gens``.

    Maps each orbit point, in the order reached, to the edge ``(a, g)`` with
    ``g(a)`` equal to that point; ``alpha`` maps to ``None``.
    """
    tree: dict[int, tuple[int, Permutation] | None] = {alpha: None}
    queue = [alpha]
    pairs = [(g.images, g) for g in gens]
    for a in queue:
        for images, g in pairs:
            b = images[a]
            if b not in tree:
                tree[b] = (a, g)
                queue.append(b)
    return tree


def _is_involution(g: Permutation) -> bool:
    """Whether g * g = 1, read from g's images without a product."""
    p = g.images
    return compose_with(p)(p) == Permutation.identity(len(p)).images


def orbit_partition(gens: Sequence[Permutation],
                    points: Iterable[int]) -> list[list[int]]:
    """The orbits of ``<gens>`` through ``points``, in the order first met.

    Each orbit is listed breadth-first from its first point in ``points``,
    in the order ``schreier_tree`` reaches its points.
    """
    images = [g.images for g in gens]
    seen: set[int] = set()
    parts = []
    for p in points:
        if p not in seen:
            seen.add(p)
            orbit = [p]
            for a in orbit:
                for g in images:
                    b = g[a]
                    if b not in seen:
                        seen.add(b)
                        orbit.append(b)
            parts.append(orbit)
    return parts


def build_chain(
    generators: Sequence[Permutation],
    degree: int,
    base_prefix: Sequence[int] = (),
    *,
    _order: int | None = None,
) -> StabilizerChain:
    """Deterministic Schreier-Sims.  The base starts with ``base_prefix``.

    ``_order`` is private: an upper bound on |G| the caller can prove, such
    as the order of a complete chain of the same group, or of a group that
    G is a homomorphic image of.  The build stops as soon as its transversal
    lengths multiply to it.  That is exact, because each partial basic orbit
    lies inside the true one, so the product never exceeds |G|, and reaching
    the bound means every level is complete and every Schreier generator
    left would sift to 1.  A smaller group never reaches the bound, so its
    build runs to the end.
    """
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

    # each generator's depth: the index of the first base point it moves
    base: list[int] = list(base_prefix)
    depths = []
    for g in gens:
        depth = next((i for i, b in enumerate(base) if g(b) != b), len(base))
        if depth == len(base):
            base.append(g.first_moved_point())
        depths.append(depth)

    transversals = [Transversal([g for g, d in zip(gens, depths) if d >= i],
                                b, degree) for i, b in enumerate(base)]
    chain = StabilizerChain(degree, base, transversals)

    # ids of the strong generators that are involutions
    involutions = {id(g) for g in gens if _is_involution(g)}

    def first_new_generator(i: int) -> tuple[Permutation, int] | None:
        """The first Schreier generator of level i that does not sift to 1.

        Returns its residue and the level the sift reached, or None when
        level i is complete.  The generator s = u_gamma g u_delta^-1 is 1
        when (gamma, g) is the tree edge that reached delta.  Otherwise
        a = u_gamma g is sifted as s = a u_delta^-1 by accumulating the
        transversal product on the right, so only a residue that becomes a
        strong generator is inverted.

        When g is an involution, the generator at (delta, g) is
        u_delta g u_gamma^-1 = s^-1.  So (gamma, g) is skipped when
        delta < gamma: its partner came earlier in the scan and lies in
        the deeper levels, which are complete and so form a group that
        holds its inverse.  It is also skipped when the tree edge into
        gamma is (delta, g), since then u_gamma g = u_delta g g = u_delta.
        A fixed point of g is still tested.  Each skipped pair would have
        sifted to 1, so the residues are those of a scan that tests them.
        """
        trans = transversals[i]
        tree = trans.tree
        pairs = [(g.images, g, id(g) in involutions) for g in trans.gens]
        for gamma in sorted(tree):
            edge = tree[gamma]
            times_u = None
            for images, g, involution in pairs:
                delta = images[gamma]
                if involution and (delta < gamma or edge == (delta, g)):
                    continue
                if tree[delta] == (gamma, g):
                    continue
                if times_u is None:
                    times_u = compose_with(trans[gamma].images)
                a = times_u(images)
                b = trans[delta].images
                if a == b:
                    continue
                b, j = chain.sift(a, b, i + 1)
                if a != b:
                    return (Permutation._unchecked(a)
                            * Permutation._unchecked(b).inverse()), j
        return None

    # Work from the deepest level up; the invariant is that all strictly
    # deeper levels are complete whenever level i is processed.  A level
    # that gains a generator is a new Transversal at once, so each tree is
    # current whenever its level is read.
    i = len(base) - 1
    while i >= 0 and (_order is None or chain.order() < _order):
        found = first_new_generator(i)
        if found is None:
            i -= 1
            continue
        residue, j = found
        if _is_involution(residue):
            involutions.add(id(residue))
        if j == len(chain.base):
            chain.base += (residue.first_moved_point(),)
            transversals.append(Transversal((), chain.base[j], degree))
        for level in range(i + 1, j + 1):
            transversals[level] = Transversal(
                transversals[level].gens + (residue,), chain.base[level],
                degree)
        i = j

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
        """The chain for ``base_prefix``, built to stop at the order of any
        chain already cached."""
        key = tuple(base_prefix)
        chain = self._chains.get(key)
        if chain is None:
            known = next(iter(self._chains.values()), None)
            chain = build_chain(
                self.generators, self.degree, key,
                _order=None if known is None else known.order())
            self._chains[key] = chain
        return chain

    def _any_chain(self) -> StabilizerChain:
        """A cached chain, else the chain for ``()``."""
        return next(iter(self._chains.values()), None) or self.chain()

    def order(self) -> int:
        return self._any_chain().order()

    def contains(self, p: Permutation) -> bool:
        return self._any_chain().contains(p)

    def point_stabilizer(self, alpha: int) -> "PermGroup":
        """G_alpha, generated by the strong generators of the chain for
        ``(alpha,)`` that fix alpha."""
        if not 0 <= alpha < self.degree:
            raise ValueError(f"point {alpha} out of range")
        return PermGroup(self.chain((alpha,)).generators_fixing(1)
                         or [Permutation.identity(self.degree)], self.degree)

    def elements(self) -> Iterator[Permutation]:
        return self.chain().elements()

    def __repr__(self) -> str:
        return f"<PermGroup deg={self.degree} ngens={len(self.generators)}>"
