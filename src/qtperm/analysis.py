"""Orbit decomposition, subdegrees, pair-class profile and quasi-transitivity."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .group import PermGroup, orbit_partition
from .perm import Permutation

QUASI_TRANSITIVE = "quasi_transitive"
CONSTANT_ONE = "constant_one"
NON_CONSTANT = "non_constant"


@dataclass(frozen=True)
class OrbitDecomposition:
    """Orbits sorted by (size, least point); one representative per orbit."""

    orbits: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]


@dataclass(frozen=True)
class PairClass:
    """One group orbit on unordered point pairs."""

    representative: tuple[int, int]
    size: int
    stabilizer_order: int
    abelian: bool


@dataclass(frozen=True)
class QuasiVerdict:
    status: str
    t: int | None = None
    witnesses: tuple[PairClass, PairClass] | None = None


@dataclass(frozen=True)
class OrbitReport:
    points: tuple[int, ...]
    representative: int
    size: int
    subdegrees: tuple[int, ...]
    faithful: bool
    transitive: bool
    two_transitive: bool
    three_halves: bool
    frobenius: bool
    primitive: bool


@dataclass(frozen=True)
class ActionReport:
    degree: int
    order: int
    orbit_reports: tuple[OrbitReport, ...]
    pair_classes: tuple[PairClass, ...]
    verdict: QuasiVerdict


def orbits(G: PermGroup) -> OrbitDecomposition:
    found = sorted((tuple(sorted(o))
                    for o in orbit_partition(G.generators, range(G.degree))),
                   key=lambda o: (len(o), o[0]))
    return OrbitDecomposition(tuple(found), tuple(o[0] for o in found))


def suborbits(G: PermGroup, alpha: int) -> tuple[int, list[list[int]]]:
    """|G_alpha| and the G_alpha-orbits of the whole domain.

    Both are read from G's chain for base prefix (alpha,). The orbits come in
    order of their least points, each listed breadth-first from it. For b in
    an orbit O, |G_alpha,b| = |G_alpha| / |O|.
    """
    chain = G.chain((alpha,))
    return chain.stabilizer_order_from(1), orbit_partition(
        chain.generators_fixing(1), range(G.degree))


@dataclass(frozen=True)
class _OrbitRecord:
    """What the suborbit classifiers read: |G_alpha| and its suborbits.

    ``subdegrees`` are the G_alpha-orbit lengths on the orbit, ascending and
    including alpha's own 1; ``betas`` holds one point of every G_alpha-orbit
    other than {alpha}.
    """

    alpha: int
    stab_order: int
    subdegrees: tuple[int, ...]
    betas: tuple[int, ...]

    def two_transitive(self) -> bool:
        return len(self.subdegrees) == 2

    def three_halves(self) -> bool:
        rest = self.subdegrees[1:]
        return self.two_transitive() or (len(set(rest)) == 1 and rest[0] > 1)

    def frobenius(self) -> bool:
        return self.stab_order > 1 and all(
            d == self.stab_order for d in self.subdegrees[1:])


def _orbit_record(G: PermGroup, alpha: int,
                  points: Sequence[int]) -> _OrbitRecord:
    order, parts = suborbits(G, alpha)
    inside = set(points)
    parts = [part for part in parts if part[0] in inside]
    return _OrbitRecord(
        alpha, order, tuple(sorted(len(part) for part in parts)),
        tuple(part[0] for part in parts if part[0] != alpha))


def subdegrees(G: PermGroup, alpha: int) -> tuple[int, ...]:
    """Orbit lengths of the point stabilizer on the orbit of alpha.

    Includes the fixed point's 1; sorted ascending.
    """
    return _orbit_record(G, alpha, G.orbit(alpha)).subdegrees


def _check_invariant(G: PermGroup, orbit: Iterable[int]) -> list[int]:
    pts = sorted(set(orbit))
    pset = set(pts)
    for g in G.generators:
        if any(g(p) not in pset for p in pts):
            raise ValueError("set is not invariant under the group")
    return pts


def _restricted_group(G: PermGroup, orbit: Sequence[int]) -> PermGroup:
    index = {p: i for i, p in enumerate(orbit)}
    gens = [
        Permutation(tuple(index[g(p)] for p in orbit))
        for g in G.generators
    ]
    return PermGroup(gens, len(orbit))


def action_kernel(G: PermGroup, orbit: Iterable[int]) -> PermGroup:
    """Subgroup acting trivially on an invariant set."""
    pts = _check_invariant(G, orbit)
    return G.pointwise_stabilizer(pts)


def is_faithful_on(G: PermGroup, orbit: Iterable[int]) -> bool:
    pts = _check_invariant(G, orbit)
    if len(pts) == G.degree:
        return True
    return _restricted_group(G, pts).order() == G.order()


def _classified(G: PermGroup, orbit: Iterable[int]) -> tuple[list[int], _OrbitRecord]:
    """An invariant set of at least 2 points and the record of its least point."""
    pts = _check_invariant(G, orbit)
    if len(pts) < 2:
        raise ValueError("orbit must have at least 2 points")
    return pts, _orbit_record(G, pts[0], pts)


def is_two_transitive(G: PermGroup, orbit: Iterable[int]) -> bool:
    return _classified(G, orbit)[1].two_transitive()


def is_three_halves(G: PermGroup, orbit: Iterable[int]) -> bool:
    """Transitive with all suborbits on the rest of one common length d > 1.

    Two-transitive actions count; regular ones (d = 1) do not, matching the
    hypotheses of the classical primitive-or-Frobenius dichotomy.
    """
    return _classified(G, orbit)[1].three_halves()


def is_frobenius(G: PermGroup, orbit: Iterable[int]) -> bool:
    """Transitive, nonregular, with trivial two-point stabilizers on the orbit."""
    return _classified(G, orbit)[1].frobenius()


def _minimal_block_size(gens, points, alpha, beta):
    parent = {p: p for p in points}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        parent[rb] = ra
        return True

    stack = [(alpha, beta)]
    union(alpha, beta)
    while stack:
        u, v = stack.pop()
        for g in gens:
            a, b = g(u), g(v)
            if union(a, b):
                stack.append((a, b))
    root = find(alpha)
    return sum(1 for p in points if find(p) == root)


def _primitive(G: PermGroup, pts: Sequence[int], record: _OrbitRecord) -> bool:
    """Minimal blocks through alpha and one beta per G_alpha-suborbit.

    For h in G_alpha the minimal block through {alpha, beta^h} is the image
    under h of the one through {alpha, beta}, so one beta per suborbit
    decides every block through alpha.
    """
    return all(
        _minimal_block_size(G.generators, pts, record.alpha, beta) == len(pts)
        for beta in record.betas)


def is_primitive(G: PermGroup, orbit: Iterable[int]) -> bool:
    """No nontrivial proper block system, by the minimal-block algorithm."""
    pts, record = _classified(G, orbit)
    if G.orbit(pts[0]) != pts:
        raise ValueError("group is not transitive on the given set")
    return _primitive(G, pts, record)


def _is_abelian(gens: Sequence[Permutation]) -> bool:
    for i, p in enumerate(gens):
        for q in gens[i + 1:]:
            if p * q != q * p:
                return False
    return True


def _every_group_abelian(order: int) -> bool:
    """True when ``order`` is 1, a prime or a prime squared."""
    p = next((d for d in range(2, math.isqrt(order) + 1) if order % d == 0),
             order)
    return order in (1, p, p * p)


def pair_class_profile(G: PermGroup) -> tuple[PairClass, ...]:
    """One entry per group orbit on unordered pairs of the whole domain.

    Each class is read from the suborbits of a, the least point of a G-orbit.
    A G_a-orbit O of b != a, with b in a's orbit or one whose least point is
    above a, gives the class of {a, b}: |G_ab| = |G_a| / |O| and |a^G| |O|
    unordered pairs. When b lies in a's orbit, the paired suborbit O*
    (holding u^-1(a) for the u in G with u(a) = b) gives the same unordered
    pairs reversed, so it joins the class, which has half as many pairs when
    O* = O. Suborbits come in order of their least points, so O* never
    precedes O and (a, b) is the least pair of its class. A chain is built
    for a two-point stabilizer only to decide ``abelian``, and only when its
    order is not 1, a prime or a prime squared.
    """
    if G.degree < 2:
        raise ValueError("degree must be at least 2")
    classes: list[PairClass] = []
    done: set[int] = set()  # the points of the G-orbits already read
    for orbit in orbit_partition(G.generators, range(G.degree)):
        a = orbit[0]
        stab_order, parts = suborbits(G, a)
        transversal = G.chain((a,)).transversals[0]
        joined: set[int] = set()  # u^-1(a) of every suborbit read so far
        for part in parts:
            b = part[0]
            if b == a or b in done or not joined.isdisjoint(part):
                continue
            size = len(orbit) * len(part)
            if b in transversal:
                paired = transversal[b].images.index(a)
                joined.add(paired)
                if paired in part:
                    size //= 2
            order_ab = stab_order // len(part)
            abelian = _every_group_abelian(order_ab) or _is_abelian(
                G.point_stabilizer(a).point_stabilizer(b).generators)
            classes.append(PairClass((a, b), size, order_ab, abelian))
        done.update(orbit)
    return tuple(classes)


def verdict_from_orders(orders: Collection[int]) -> QuasiVerdict:
    """The verdict rule on the set of two-point stabilizer orders.

    One order t > 1 is quasi-transitive, the single order 1 is constant one,
    and anything else is non-constant (with no witnesses attached).
    """
    if len(orders) == 1:
        (t,) = orders
        if t > 1:
            return QuasiVerdict(QUASI_TRANSITIVE, t=t)
        return QuasiVerdict(CONSTANT_ONE, t=1)
    return QuasiVerdict(NON_CONSTANT)


def _verdict(classes: Sequence[PairClass]) -> QuasiVerdict:
    verdict = verdict_from_orders({c.stabilizer_order for c in classes})
    if verdict.status != NON_CONSTANT:
        return verdict
    first = classes[0]
    other = next(c for c in classes if c.stabilizer_order != first.stabilizer_order)
    return QuasiVerdict(NON_CONSTANT, witnesses=(first, other))


def quasi_verdict(G: PermGroup) -> QuasiVerdict:
    """Constant two-point stabilizer order t > 1, t = 1, or witnesses."""
    return _verdict(pair_class_profile(G))


def analyze(G: PermGroup) -> ActionReport:
    """Everything measured about an action, in one deterministic report."""
    if G.degree < 2:
        raise ValueError("degree must be at least 2")
    decomp = orbits(G)
    reports = []
    for orbit, rep in zip(decomp.orbits, decomp.representatives):
        faithful = is_faithful_on(G, orbit)
        if len(orbit) == 1:
            reports.append(OrbitReport(
                points=orbit, representative=rep, size=1, subdegrees=(1,),
                faithful=faithful, transitive=True, two_transitive=False,
                three_halves=False, frobenius=False, primitive=False))
            continue
        record = _orbit_record(G, rep, orbit)
        reports.append(OrbitReport(
            points=orbit, representative=rep, size=len(orbit),
            subdegrees=record.subdegrees, faithful=faithful, transitive=True,
            two_transitive=record.two_transitive(),
            three_halves=record.three_halves(), frobenius=record.frobenius(),
            primitive=_primitive(G, orbit, record)))
    classes = pair_class_profile(G)
    return ActionReport(
        degree=G.degree, order=G.order(), orbit_reports=tuple(reports),
        pair_classes=classes, verdict=_verdict(classes))
