"""Orbit decomposition, subdegrees, pair-class profile and quasi-transitivity."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Sequence

from .group import (PermGroup, Transversal, build_chain, orbit_partition,
                    schreier_tree)
from .perm import Permutation, _identity_images

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


@dataclass(frozen=True)
class _Row:
    """|G_alpha| and the G_alpha-orbits of the domain, from G's chain for (alpha,).

    ``parts`` come in order of their least points, each breadth-first from
    it. ``transversal`` is level 0 of that chain: its keys are alpha's
    G-orbit, and it maps each b there to a u with u(alpha) = b.
    ``subdegrees`` (ascending, with alpha's own 1) and ``betas`` (least
    points, without alpha) describe the parts inside alpha's G-orbit.
    """

    alpha: int
    stab_order: int
    parts: list[list[int]]
    transversal: Transversal
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


def _row(G: PermGroup, alpha: int) -> _Row:
    chain = G.chain((alpha,))
    parts = orbit_partition(chain.generators_fixing(1), range(G.degree))
    transversal = chain.transversals[0]
    own = [part for part in parts if part[0] in transversal]
    return _Row(alpha, chain.order(1), parts, transversal,
                tuple(sorted(len(part) for part in own)),
                tuple(part[0] for part in own if part[0] != alpha))


def _rows(G: PermGroup) -> list[_Row]:
    """One row per G-orbit, at its least point, in order of least points."""
    return [_row(G, orbit[0])
            for orbit in orbit_partition(G.generators, range(G.degree))]


def _pair_classes(rows: Sequence[_Row]) -> Iterator[tuple[int, int, int, int]]:
    """(a, b, pairs, |G_ab|) for each G-orbit on unordered pairs of points.

    ``rows`` are the rows of every G-orbit in order of least points. A part
    O of b != a in the row of a, with b in a's orbit or in a later one, gives
    the class of {a, b}: |G_ab| = |G_a| / |O| and |a^G| |O| unordered pairs.
    When b lies in a's orbit, the paired part O* (holding u^-1(a) for the u
    in G with u(a) = b) gives the same unordered pairs reversed, so it joins
    the class, which has half as many pairs when O* = O. Parts come in order
    of their least points, so O* never precedes O and (a, b) is the least
    pair of its class.
    """
    done: set[int] = set()  # the points of the G-orbits already read
    for row in rows:
        a, transversal = row.alpha, row.transversal
        joined: set[int] = set()  # u^-1(a) of every part read so far
        for part in row.parts:
            b = part[0]
            if b == a or b in done or not joined.isdisjoint(part):
                continue
            pairs = len(transversal) * len(part)
            if b in transversal:
                paired = transversal[b].images.index(a)
                joined.add(paired)
                if paired in part:
                    pairs //= 2
            yield a, b, pairs, row.stab_order // len(part)
        done.update(transversal)


def subdegrees(G: PermGroup, alpha: int) -> tuple[int, ...]:
    """Orbit lengths of the point stabilizer on the orbit of alpha.

    Includes the fixed point's 1; sorted ascending.
    """
    return _row(G, alpha).subdegrees


def _check_invariant(G: PermGroup, orbit: Iterable[int]) -> list[int]:
    pts = sorted(set(orbit))
    if pts and (pts[0] < 0 or pts[-1] >= G.degree):
        raise ValueError("point out of range")
    pset = set(pts)
    for g in G.generators:
        if not pset.issuperset(map(g.images.__getitem__, pts)):
            raise ValueError("set is not invariant under the group")
    return pts


def is_faithful_on(G: PermGroup, orbit: Iterable[int]) -> bool:
    """Whether G acts faithfully on an invariant set X.

    The kernel K of G on X fixes the least point a of X, so K lies in G_a
    and is the kernel of G_a on X: G is faithful on X exactly when G_a's
    image on X has order |G_a|. G_a and |G_a| come from G's chain for
    prefix (a,), and the image is a quotient of G_a, so its chain is built
    to stop at |G_a|. No chain of G's own image is built.
    """
    pts = _check_invariant(G, orbit)
    if len(pts) == G.degree:
        return True
    if not pts:
        return G.order() == 1
    chain = G.chain((pts[0],))
    order = chain.order(1)
    if order == 1:
        return True
    index = dict(zip(pts, _identity_images(len(pts))))
    gens = [Permutation._unchecked(tuple(
        map(index.__getitem__, map(g.images.__getitem__, pts))))
        for g in chain.generators_fixing(1)]
    return build_chain(gens, len(pts), _order=order).order() == order


def _is_diagonal_sum(G: PermGroup, degrees: Iterable[int]) -> bool:
    """Whether a disjoint sum G, on blocks of ``degrees`` points, is diagonal.

    G maps onto the group of each summand, so it is diagonal exactly when
    it is faithful on every summand. Each check reads G's chain for the
    summand's first point, which building the orbital table's rows caches.
    """
    start = 0
    for degree in degrees:
        if not is_faithful_on(G, range(start, start + degree)):
            return False
        start += degree
    return True


def _classified(G: PermGroup, orbit: Iterable[int]) -> _Row:
    """The row of the least point of a G-orbit of at least 2 points."""
    pts = _check_invariant(G, orbit)
    if len(pts) < 2:
        raise ValueError("orbit must have at least 2 points")
    row = _row(G, pts[0])
    if len(row.transversal) != len(pts):  # pts holds the orbit of pts[0]
        raise ValueError("group is not transitive on the given set")
    return row


def is_two_transitive(G: PermGroup, orbit: Iterable[int]) -> bool:
    return _classified(G, orbit).two_transitive()


def is_three_halves(G: PermGroup, orbit: Iterable[int]) -> bool:
    """Transitive with all suborbits on the rest of one common length d > 1.

    Two-transitive actions count; regular ones (d = 1) do not, matching the
    hypotheses of the classical primitive-or-Frobenius dichotomy.
    """
    return _classified(G, orbit).three_halves()


def is_frobenius(G: PermGroup, orbit: Iterable[int]) -> bool:
    """Transitive, nonregular, with trivial two-point stabilizers on the orbit."""
    return _classified(G, orbit).frobenius()


def _primitive(G: PermGroup, row: _Row) -> bool:
    """Whether G is primitive on the G-orbit of the row's point alpha.

    The least block holding alpha and beta is the orbit of alpha under
    <G_alpha, u> for any u with u(alpha) = beta, since blocks through alpha
    are the orbits of alpha under the groups between G_alpha and G. Those of
    beta and h(beta), h in G_alpha, are the same block, so one beta per
    suborbit decides them all.

    A block through alpha is a union of suborbits holding {alpha}, and its
    size divides the orbit length n. So when no 1 + (sum of a sub-multiset
    of the other subdegrees) is a divisor of n strictly between 1 and n, no
    block can exist and nothing is searched. Bit s of ``sums`` is set when
    some sub-multiset sums to s.
    """
    n = len(row.transversal)
    sums = 1
    for d in row.subdegrees[1:]:  # subdegrees[0] is alpha's own 1
        sums |= sums << d
    if not any(sums >> (d - 1) & 1
               for d in range(2, n // 2 + 1) if n % d == 0):
        return True
    alpha, transversal = row.alpha, row.transversal
    stabilizer = G.chain((alpha,)).generators_fixing(1)
    return all(
        len(schreier_tree(stabilizer + [transversal[beta]], alpha))
        == len(transversal) for beta in row.betas)


def is_primitive(G: PermGroup, orbit: Iterable[int]) -> bool:
    """No nontrivial proper block system on a G-orbit."""
    return _primitive(G, _classified(G, orbit))


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


def _profile(G: PermGroup, rows: Sequence[_Row]) -> tuple[PairClass, ...]:
    """The pair classes read from the rows of every G-orbit.

    A chain is built for a two-point stabilizer only to decide ``abelian``,
    and only when its order is not 1, a prime or a prime squared. It is the
    chain of G_a, from G's chain c for (a,), with base (b,): its build stops
    at |G_a|, and its generators fixing b generate G_ab.
    """
    return tuple(
        PairClass((a, b), pairs, order_ab, _every_group_abelian(order_ab)
                  or _is_abelian(build_chain(
                      (c := G.chain((a,))).generators_fixing(1), G.degree,
                      (b,), _order=c.order(1)).generators_fixing(1)))
        for a, b, pairs, order_ab in _pair_classes(rows))


def pair_class_profile(G: PermGroup) -> tuple[PairClass, ...]:
    """One entry per group orbit on unordered pairs of the whole domain."""
    if G.degree < 2:
        raise ValueError("degree must be at least 2")
    return _profile(G, _rows(G))


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
    """Everything measured about an action, read from one row per G-orbit."""
    if G.degree < 2:
        raise ValueError("degree must be at least 2")
    rows = _rows(G)
    reports = []
    for row in sorted(rows, key=lambda row: (len(row.transversal), row.alpha)):
        orbit = tuple(sorted(row.transversal))
        # a single point is neither Frobenius nor primitive
        big = len(orbit) > 1
        reports.append(OrbitReport(
            points=orbit, representative=row.alpha, size=len(orbit),
            subdegrees=row.subdegrees, faithful=is_faithful_on(G, orbit),
            transitive=True, two_transitive=row.two_transitive(),
            three_halves=row.three_halves(),
            frobenius=big and row.frobenius(),
            primitive=big and _primitive(G, row)))
    classes = _profile(G, rows)
    return ActionReport(
        degree=G.degree, order=G.order(), orbit_reports=tuple(reports),
        pair_classes=classes, verdict=_verdict(classes))
