"""Arithmetic case analysis and the desk-scale sweep over intransitive sums."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from typing import Callable, Sequence

from . import constructions as cons
from .analysis import (QUASI_TRANSITIVE, ActionReport, QuasiVerdict,
                       _is_diagonal_sum, _rows, analyze,
                       verdict_from_orders)
from .analysis import quasi_verdict  # noqa: F401  perfbench traces it here
from .constructions import LabeledAction
from .group import PermGroup
from .perm import Permutation


def step1_quadratic(t: int, group_order: int) -> set[int]:
    """Positive integer roots of t*x^2 - t*x - group_order = 0.

    The discriminant argument gives at most one such root; asserted.
    """
    if t < 1 or group_order < 1:
        raise ValueError("t and group order must be positive")
    disc = t * t + 4 * t * group_order
    s = math.isqrt(disc)
    roots = set()
    if s * s == disc and (t + s) % (2 * t) == 0:
        x = (t + s) // (2 * t)
        if x > 0:
            roots.add(x)
    assert len(roots) <= 1
    return roots


@dataclass(frozen=True)
class Step4Record:
    """The final contradiction, every number recomputed rather than quoted."""

    d1: int
    orbit1_size: int
    product: int
    quadratic_roots: frozenset[int]
    orbit2_size: int
    d2: int
    gcd: int
    contradiction: bool


def step4_check() -> Step4Record:
    """A_7/S_7-on-pairs vs a 2-transitive second orbit cannot coexist."""
    d1, orbit1 = 10, 21
    product = d1 * orbit1
    roots = step1_quadratic(1, product)
    (orbit2,) = roots
    d2 = product // orbit2
    g = math.gcd(d1, d2)
    return Step4Record(
        d1=d1, orbit1_size=orbit1, product=product,
        quadratic_roots=frozenset(roots), orbit2_size=orbit2, d2=d2,
        gcd=g, contradiction=(g != 1))


@dataclass(frozen=True)
class LemmaViolation:
    rule: str
    detail: str


def lemma_monitor(report: ActionReport) -> list[LemmaViolation]:
    """Consequences every quasi-transitive action must satisfy.

    Checks pairwise-coprime nontrivial subdegrees, pairwise-distinct orbit
    sizes, per-orbit faithfulness, and the order identity tying t, the
    subdegrees and the orbit sizes together.
    """
    if report.verdict.status != QUASI_TRANSITIVE:
        return []
    t = report.verdict.t
    violations = []
    ds = []
    for rep in report.orbit_reports:
        nontrivial = sorted(set(d for d in rep.subdegrees if d > 1))
        if len(nontrivial) > 1:
            violations.append(LemmaViolation(
                "constant-subdegree",
                f"orbit at {rep.representative} has subdegrees {rep.subdegrees}"))
        ds.append((rep, nontrivial[0] if nontrivial else 1))
        if not rep.faithful:
            violations.append(LemmaViolation(
                "faithful-orbits",
                f"kernel is nontrivial on the orbit at {rep.representative}"))
    for (ra, da), (rb, db) in combinations(ds, 2):
        if math.gcd(da, db) != 1:
            violations.append(LemmaViolation(
                "coprime-subdegrees",
                f"gcd({da}, {db}) = {math.gcd(da, db)} for orbits at "
                f"{ra.representative} and {rb.representative}"))
        if ra.size == rb.size:
            violations.append(LemmaViolation(
                "distinct-orbit-sizes",
                f"orbits at {ra.representative} and {rb.representative} "
                f"both have size {ra.size}"))
    products = {rep.size * d for rep, d in ds}
    if len(products) > 1:
        violations.append(LemmaViolation(
            "orbit-size-product",
            f"d_i * orbit size is not constant: {sorted(products)}"))
    for rep, d in ds:
        if rep.size * d * t != report.order:
            violations.append(LemmaViolation(
                "order-identity",
                f"|G| != size * d * t at orbit {rep.representative}: "
                f"{rep.size} * {d} * {t} != {report.order}"))
    return violations


@dataclass(frozen=True)
class SweepConfig:
    max_total_degree: int = 600
    max_group_order: int = 200_000
    include_q32: bool = False
    include_triples: bool = False
    families: tuple[str, ...] | None = None  # None = all


@dataclass(frozen=True)
class CatalogEntry:
    """A group's actions, and the group's order in closed form.

    ``orbital_table`` checks ``order`` against the diagonal group it builds.
    """

    name: str
    actions: tuple[LabeledAction, ...]
    order: int


@dataclass(frozen=True)
class SweepItem:
    label: str
    status: str
    t: int | None


@dataclass
class SweepResult:
    tested: int = 0
    skipped: int = 0
    items: list[SweepItem] = field(default_factory=list)
    findings: list[SweepItem] = field(default_factory=list)
    lemma_violations: list[LemmaViolation] = field(default_factory=list)


def _dihedral_stabilizers(gon: LabeledAction) -> list[PermGroup]:
    """D_n's core-free subgroups, one per conjugacy class: 1, <s>, <rs>.

    A subgroup holding a nontrivial rotation holds a nontrivial subgroup of
    the rotations, and each of those is normal. So the core-free subgroups
    are 1 and the groups of order 2 generated by a reflection. The
    reflections form one class for odd n and two for even n, with
    representatives s and rs, where r and s are the n-gon's rotation and
    reflection generators.
    """
    n = gon.degree
    r, s = gon.group.generators
    reps = [Permutation.identity(n), s] + ([r * s] if n % 2 == 0 else [])
    return [PermGroup([h], n) for h in reps]


def _symmetric_family() -> list[CatalogEntry]:
    entries = []
    for n in range(3, 8):
        for natural, order in ((cons.symmetric_group(n), math.factorial(n)),
                               (cons.alternating_group(n),
                                math.factorial(n) // 2)):
            acts = [natural]
            for k in range(2, n // 2 + 1):
                sub = cons.action_on_k_subsets(natural, k)
                if sub.degree <= 120:
                    acts.append(sub)
            if order <= 120:
                acts.append(cons.regular_action(natural))
            if natural.label == "A7-natural":
                acts.append(cons.a7_on_15(natural))
            entries.append(CatalogEntry(natural.label.replace("-natural", ""),
                                        tuple(acts), order))
    return entries


def _cyclic_family() -> list[CatalogEntry]:
    # proper subgroups of a cyclic group are normal, so the regular action
    # is the only faithful transitive one
    return [CatalogEntry(f"C{n}", (cons.cyclic_group(n),), n)
            for n in range(2, 21)]


def _dihedral_family() -> list[CatalogEntry]:
    entries = []
    for n in range(3, 21):
        gon = cons.dihedral_group(n)
        entries.append(CatalogEntry(f"D{n}", tuple(
            cons.coset_action(gon, H) for H in _dihedral_stabilizers(gon)),
            2 * n))
    return entries


def _affine_family() -> list[CatalogEntry]:
    entries = []
    for p in (3, 5, 7):
        natural = cons.affine_frobenius(p)
        entries.append(CatalogEntry(
            f"AGL(1,{p})", (natural, cons.regular_action(natural)),
            p * (p - 1)))
    return entries


def _psl2_order(f: int) -> int:
    """|PSL2(q)| = q(q^2 - 1) for q = 2^f."""
    q = 1 << f
    return q * (q * q - 1)


def _psl_family(include_q32: bool) -> list[CatalogEntry]:
    psl8 = cons.psl2(3)
    entries = [
        CatalogEntry("PSL2(8)", (psl8, cons.psl2_cosets(3),
                                 cons.regular_action(psl8)), _psl2_order(3)),
        CatalogEntry("PGammaL2(8)", (cons.pgammal2(3), cons.pgammal2_cosets(3)),
                     _psl2_order(3) * 3),
    ]
    if include_q32:
        entries.append(CatalogEntry("PSL2(32)", (cons.psl2(5),
                                                 cons.psl2_cosets(5)),
                                    _psl2_order(5)))
    return entries


FAMILY_BUILDERS = {
    "symmetric": lambda cfg: _symmetric_family(),
    "cyclic": lambda cfg: _cyclic_family(),
    "dihedral": lambda cfg: _dihedral_family(),
    "affine": lambda cfg: _affine_family(),
    "psl": lambda cfg: _psl_family(cfg.include_q32),
}


def default_catalog(config: SweepConfig | None = None) -> list[CatalogEntry]:
    config = config or SweepConfig()
    names = config.families or tuple(FAMILY_BUILDERS)
    entries = []
    for name in names:
        if name not in FAMILY_BUILDERS:
            raise ValueError(f"unknown catalog family {name!r}")
        entries.extend(FAMILY_BUILDERS[name](config))
    return entries


@dataclass(frozen=True)
class OrbitalTable:
    """Two-point stabilizer orders of the disjoint sums of one entry's actions.

    ``cells[i, j]`` (i <= j) holds |G_ab| over a in X_i and b != a in X_j,
    and ``stab_orders[i]`` is |G_a|, the order on a and its copy in a second
    summand X_i.
    """

    cells: dict[tuple[int, int], frozenset[int]]
    stab_orders: dict[int, int]

    def verdict(self, shape: Sequence[int]) -> QuasiVerdict:
        """The verdict on the sum of the actions at ascending indices ``shape``."""
        orders: set[int] = set()
        for k, i in enumerate(shape):
            orders |= self.cells[i, i]
            for j in shape[k + 1:]:
                orders |= self.cells[i, j]
                if j == i:
                    orders.add(self.stab_orders[i])
        return verdict_from_orders(orders)


def orbital_table(entry: CatalogEntry, indices: Sequence[int]) -> OrbitalTable:
    """The orbital table of the actions of ``entry`` at ascending ``indices``.

    One diagonal group G acts on the disjoint union of the actions, and
    cell (i, j) is filled from the row of the least point a of X_i: each
    G_a-orbit O in X_j other than {a} gives |G_a| / |O|. Those are the
    orders of every pair class meeting X_i and X_j, since G is transitive
    on X_i, so each such class holds a pair {a, b}, and |G_ab| is constant
    on a class. Raises AssertionError unless the sum is diagonal, G is
    transitive on each X_i and |G| is the entry's closed-form order.
    """
    actions = [entry.actions[i] for i in indices]
    G = cons.disjoint_sum(actions).group
    rows = _rows(G)
    if not _is_diagonal_sum(G, [a.degree for a in actions]):
        raise AssertionError(f"catalog entry {entry.name} is not diagonal: "
                             f"its actions do not all have order {G.order()}")
    for row, action in zip(rows, actions):
        if len(row.transversal) != action.degree:
            raise AssertionError(f"catalog entry {entry.name}: "
                                 f"{action.label} is not transitive")
    order = rows[0].stab_order * len(rows[0].transversal)
    if order != entry.order:
        raise AssertionError(f"catalog entry {entry.name}: the diagonal group "
                             f"has order {order}, not {entry.order}")
    block_of = [i for i, a in zip(indices, actions) for _ in range(a.degree)]
    cells: dict[tuple[int, int], set[int]] = {
        (i, j): set() for k, i in enumerate(indices) for j in indices[k:]}
    for i, row in zip(indices, rows):
        for part in row.parts:
            j = block_of[part[0]]
            if j >= i and part[0] != row.alpha:
                cells[i, j].add(row.stab_order // len(part))
    return OrbitalTable(
        {key: frozenset(orders) for key, orders in cells.items()},
        {i: row.stab_order for i, row in zip(indices, rows)})


def _tested_shapes(entry: CatalogEntry,
                   config: SweepConfig) -> tuple[list[tuple[int, ...]], int]:
    """Index tuples of the entry's sums within the guardrails; the skip count."""
    acts = entry.actions
    r_values = (2, 3) if config.include_triples else (2,)
    tested, skipped = [], 0
    for r in r_values:
        for shape in combinations_with_replacement(range(len(acts)), r):
            if sum(acts[i].degree for i in shape) > config.max_total_degree \
                    or entry.order > config.max_group_order:
                skipped += 1
            else:
                tested.append(shape)
    return tested, skipped


def sweep(config: SweepConfig | None = None,
          progress: Callable[[str, int, int, float], None] | None = None,
          ) -> SweepResult:
    """Form disjoint sums of catalog actions and look for quasi-transitive ones.

    Every sum is intransitive by construction, so any quasi-transitive
    verdict is a counterexample to the transitivity theorem (none is
    expected). Verdicts are read from one orbital table per catalog entry;
    only a quasi-transitive one builds its sum, which ``analyze`` must
    confirm before the lemma monitor reads the report. ``progress``, if
    given, is called once per entry with its name, the tested and skipped
    counts and the seconds spent on it.
    """
    config = config or SweepConfig()
    result = SweepResult()
    for entry in default_catalog(config):
        start = time.perf_counter()
        shapes, skipped = _tested_shapes(entry, config)
        result.skipped += skipped
        if shapes:
            table = orbital_table(entry, sorted(set().union(*shapes)))
        for shape in shapes:
            chosen = [entry.actions[i] for i in shape]
            verdict = table.verdict(shape)
            item = SweepItem(cons.sum_label(chosen), verdict.status, verdict.t)
            result.tested += 1
            result.items.append(item)
            if verdict.status == QUASI_TRANSITIVE:
                result.findings.append(item)
                report = analyze(cons.disjoint_sum(chosen).group)
                if (report.verdict.status, report.verdict.t) != \
                        (verdict.status, verdict.t):
                    raise AssertionError(
                        f"orbital table and analyze disagree on {item.label}")
                result.lemma_violations.extend(lemma_monitor(report))
        if progress is not None:
            progress(entry.name, len(shapes), skipped,
                     time.perf_counter() - start)
    result.items.sort(key=lambda it: it.label)
    result.findings.sort(key=lambda it: it.label)
    return result
