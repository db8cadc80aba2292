"""Concrete group actions: S_n/A_n, k-subsets, regular, affine, PSL2/PGammaL2."""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Sequence

from .gf2 import GF2Field
from .group import PermGroup, _is_involution
from .perm import Permutation, compose_with

INFINITY = "inf"
# guardrails: both actions have one point per element or coset
MAX_REGULAR_ORDER = 10_000
MAX_COSET_INDEX = 10_000


class LabeledAction:
    """A permutation group together with a bijective point labeling."""

    def __init__(self, group: PermGroup, label: str, points: Sequence[object]):
        points = tuple(points)
        if len(points) != group.degree:
            raise ValueError("one domain object per point required")
        if len(set(points)) != len(points):
            raise ValueError("labeling must be a bijection")
        self.group = group
        self.label = label
        self.points = points

    @property
    def degree(self) -> int:
        return self.group.degree

    def __repr__(self) -> str:
        return f"<LabeledAction {self.label!r} deg={self.degree}>"


def symmetric_group(n: int) -> LabeledAction:
    """Natural action of S_n on 0..n-1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        gens = [Permutation.identity(1)]
    elif n == 2:
        gens = [Permutation.from_cycles(2, [(0, 1)])]
    else:
        gens = [Permutation.from_cycles(n, [(0, 1)]),
                Permutation.from_cycles(n, [tuple(range(n))])]
    return LabeledAction(PermGroup(gens, n), f"S{n}-natural", range(n))


def alternating_group(n: int) -> LabeledAction:
    """Natural action of A_n on 0..n-1 (n >= 3)."""
    if n < 3:
        raise ValueError("n must be at least 3")
    if n == 3:
        gens = [Permutation.from_cycles(3, [(0, 1, 2)])]
    elif n % 2 == 1:
        gens = [Permutation.from_cycles(n, [(0, 1, 2)]),
                Permutation.from_cycles(n, [tuple(range(n))])]
    else:
        # an (n-1)-cycle on 1..n-1 is even when n is even
        gens = [Permutation.from_cycles(n, [(0, 1, 2)]),
                Permutation.from_cycles(n, [tuple(range(1, n))])]
    return LabeledAction(PermGroup(gens, n), f"A{n}-natural", range(n))


def cyclic_group(n: int) -> LabeledAction:
    """C_n rotating 0..n-1; this is also its regular action."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        gens = [Permutation.identity(1)]
    else:
        gens = [Permutation.from_cycles(n, [tuple(range(n))])]
    return LabeledAction(PermGroup(gens, n), f"C{n}-regular", range(n))


def dihedral_group(n: int) -> LabeledAction:
    """D_n (order 2n) on the vertices of a regular n-gon."""
    if n < 3:
        raise ValueError("n must be at least 3")
    rot = Permutation.from_cycles(n, [tuple(range(n))])
    refl = Permutation(tuple((n - i) % n for i in range(n)))
    return LabeledAction(PermGroup([rot, refl], n), f"D{n}-gon", range(n))


def action_on_k_subsets(action: LabeledAction, k: int) -> LabeledAction:
    """Induced action on k-element subsets, labeled lexicographically."""
    n = action.degree
    if not 0 < k <= n:
        raise ValueError("k must be between 1 and the degree")
    subsets = list(combinations(range(n), k))
    index = {s: i for i, s in enumerate(subsets)}
    gens = []
    for g in action.group.generators:
        images = [index[tuple(sorted(g(x) for x in s))] for s in subsets]
        gens.append(Permutation(tuple(images)))
    group = PermGroup(gens, len(subsets))
    return LabeledAction(group, f"{action.label}-on-{k}-subsets", subsets)


def regular_action(action: LabeledAction) -> LabeledAction:
    """Right-regular action of the group on its own elements."""
    order = action.group.order()
    if order > MAX_REGULAR_ORDER:
        raise ValueError(f"group too large for regular action: "
                         f"{order} > {MAX_REGULAR_ORDER}")
    elements = sorted(g.images for g in action.group.elements())
    index = {e: i for i, e in enumerate(elements)}
    times = [compose_with(e) for e in elements]
    gens = [Permutation(tuple(index[times_p(s.images)] for times_p in times))
            for s in action.group.generators]
    group = PermGroup(gens, order)
    return LabeledAction(group, f"{action.label}-regular", elements)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def affine_frobenius(p: int) -> LabeledAction:
    """AGL(1,p) acting on GF(p): all maps x -> ax + b with a != 0."""
    if not _is_prime(p) or p > 100:
        raise ValueError("p must be a prime <= 100")
    if p == 2:
        return LabeledAction(PermGroup([Permutation.from_cycles(2, [(0, 1)])], 2),
                             "AGL(1,2)-natural", range(2))
    shift = Permutation(tuple((x + 1) % p for x in range(p)))
    g = next(a for a in range(2, p)
             if all(pow(a, (p - 1) // q, p) != 1
                    for q in range(2, p) if (p - 1) % q == 0 and _is_prime(q)))
    scale = Permutation(tuple((g * x) % p for x in range(p)))
    return LabeledAction(PermGroup([shift, scale], p), f"AGL(1,{p})-natural", range(p))


def disjoint_sum(actions: Sequence[LabeledAction]) -> LabeledAction:
    """Action on the disjoint union; relies on positional generator matching."""
    if not actions:
        raise ValueError("need at least one action")
    ngens = len(actions[0].group.generators)
    if any(len(a.group.generators) != ngens for a in actions):
        raise ValueError("all summands must carry the same number of generators")
    degree = sum(a.degree for a in actions)
    gens = []
    for i in range(ngens):
        images: list[int] = []
        offset = 0
        for a in actions:
            images.extend(offset + x for x in a.group.generators[i].images)
            offset += a.degree
        gens.append(Permutation(tuple(images)))
    points = []
    for block, a in enumerate(actions):
        points.extend((block, obj) for obj in a.points)
    return LabeledAction(PermGroup(gens, degree), sum_label(actions), points)


def sum_label(actions: Sequence[LabeledAction]) -> str:
    """The label ``disjoint_sum`` gives the sum of ``actions``."""
    return "sum(" + ", ".join(a.label for a in actions) + ")"


def _projective_action(f: int, name: str, frobenius: bool) -> LabeledAction:
    """``name``(q), q = 2^f, on the projective line: points 0..q-1 are the
    field elements and q is infinity.  The generators are x+1, lambda*x
    and 1/x, which swaps 0 and infinity, and with ``frobenius`` also x^2."""
    field = GF2Field(f)
    q, lam = field.q, field.primitive_element()
    maps = [[x ^ 1 for x in range(q)] + [q],
            [field.mul(lam, x) for x in range(q)] + [q],
            [q] + [field.inv(x) for x in range(1, q)] + [0]]
    if frobenius:
        maps.append([field.mul(x, x) for x in range(q)] + [q])
    gens = [Permutation(images) for images in maps]
    return LabeledAction(PermGroup(gens, q + 1), f"{name}({q})-projective",
                         [*range(q), INFINITY])


def psl2(f: int) -> LabeledAction:
    """PSL2(q), q = 2^f, on the projective line (q+1 points)."""
    return _projective_action(f, "PSL2", frobenius=False)


def pgammal2(f: int) -> LabeledAction:
    """PGammaL2(q) = PSL2(q) extended by the Frobenius map x -> x^2."""
    return _projective_action(f, "PGammaL2", frobenius=True)


def _coset_levels(chain, at_base: Callable[[tuple], tuple]) -> list:
    """The nontrivial levels of a chain with base 0..n-1, for ``_min_coset_rep``.

    Each is a getter of images at the level's basic orbit, or None when
    that orbit is every point, and the map from each orbit point gamma to
    the step of u_gamma: the maps from g's images to those of u_gamma * g,
    in full and, on the last level alone, at the points ``at_base`` reads.
    """
    levels = [trans for trans in chain.transversals if len(trans) > 1]
    return [(trans.at_orbit and trans.at_orbit[1],
             {gamma: (compose_with(trans[gamma].images),
                      compose_with(at_base(trans[gamma].images))
                      if trans is levels[-1] else None)
              for gamma in trans})
            for trans in levels]


def _min_coset_rep(levels, images: tuple, step: tuple) -> tuple[tuple, tuple]:
    """The least element of H*g, g given by images, as images and a last step.

    ``levels`` come from ``_coset_levels`` of H's chain with base 0..n-1,
    and ``step`` is the step of the identity. The elements of level i fix
    0..i-1, so the u_gamma whose gamma has the least image under the
    current g fixes image i greedily, and g -> u*g. The last step is
    returned untaken: its maps give the least element's images, in full or
    at the base alone.
    """
    for at_orbit, steps in levels:
        images = step[0](images)
        # an orbit of every point has the least image 0
        step = steps[images.index(0 if at_orbit is None
                                  else min(at_orbit(images)))]
    return images, step


def coset_action(action: LabeledAction, H: PermGroup) -> LabeledAction:
    """Transitive action on right cosets of a subgroup H."""
    G = action.group
    if H.degree != G.degree:
        raise ValueError("subgroup degree mismatch")
    for h in H.generators:
        if not G.contains(h):
            raise ValueError("H is not a subgroup: generator outside the group")
    # A chain over the full point sequence makes the lex-least coset
    # representative computable greedily, one base point at a time. Built
    # before H.order(), which then reads it, so H needs no second chain.
    h_chain = H.chain(tuple(range(H.degree)))
    h_order = H.order()
    g_order = G.order()
    index, remainder = divmod(g_order, h_order)
    if remainder:
        raise AssertionError("subgroup order does not divide the group order")
    if index > MAX_COSET_INDEX:
        raise ValueError(f"coset index too large: {index} > {MAX_COSET_INDEX}")

    # Breadth-first over the cosets. Each is keyed by its least element's
    # images on a base of G, which fix that element, so only a new coset's
    # representative is formed in full. The identity is the least
    # permutation, so it represents H. For an involution s, Hr s = Hr'
    # gives Hr' s = Hr, and that entry is not searched again.
    base = G._any_chain().base
    identity = (tuple, compose_with(base))
    levels = _coset_levels(h_chain, identity[1])
    ngens = len(G.generators)
    generators = [(k, s.images, _is_involution(s))
                  for k, s in enumerate(G.generators)]
    reps = {base: Permutation.identity(G.degree).images}
    targets: dict[tuple, list] = {base: [None] * ngens}
    queue = [base]
    for r in queue:
        times_r, row = compose_with(reps[r]), targets[r]
        for k, s, involution in generators:
            if row[k] is not None:
                continue
            images, (times_u, at_base) = _min_coset_rep(
                levels, times_r(s), identity)
            key = at_base(images)
            if key not in targets:
                reps[key] = times_u(images)
                targets[key] = [None] * ngens
                queue.append(key)
            row[k] = key
            if involution:
                targets[key][k] = r
    if len(targets) != index:
        raise AssertionError("coset enumeration does not match the index")
    ordered = sorted(targets, key=reps.__getitem__)
    pos = {key: i for i, key in enumerate(ordered)}
    rows = [targets[key] for key in ordered]
    gens = [Permutation(tuple(pos[row[k]] for row in rows))
            for k in range(ngens)]
    points = [Permutation._unchecked(reps[key]) for key in ordered]
    return LabeledAction(PermGroup(gens, index),
                         f"{action.label}-cosets-index-{index}", points)


def _torus_power_map(c: Permutation, m: int) -> Permutation:
    """The permutation c^k(0) -> c^(m k)(0), for c one cycle through every point."""
    degree = c.degree
    cycle = [0]
    while len(cycle) < degree:
        cycle.append(c(cycle[-1]))
    if len(set(cycle)) != degree:
        raise ValueError("the torus generator must be one cycle through every point")
    images = [0] * degree
    for k, point in enumerate(cycle):
        images[point] = cycle[m * k % degree]
    return Permutation(tuple(images))


def _first_element_of_order(chain, order: int) -> Permutation:
    """The first element of ``order`` in ``chain.elements()`` order.

    Only for an order that no element fixing the first base point has: the
    block of those elements, the stabilizer of that point, is never formed.
    """
    trans = chain.transversals[0] if chain.base else {}
    for gamma in sorted(trans):
        if gamma == chain.base[0]:
            continue
        u = trans[gamma]
        for s in chain.elements(1):
            g = s * u
            if g.order() == order:
                return g
    raise AssertionError(f"no element of order {order} found")


def dihedral_2q_plus_2_subgroup(action: LabeledAction) -> PermGroup:
    """Dihedral subgroup of order 2(q+1) inside PSL2(q) on the projective line.

    Finds the first element c of order q+1 (a non-split torus generator) in
    deterministic chain-enumeration order, and returns <c, j> for the
    reflection j(c^k(0)) = c^(-k)(0).  The torus <c> is regular on the q+1
    points, so its normalizer D has order 2(q+1) and each point is fixed by
    exactly one involution of D; the one fixing 0 inverts c, so it is j.
    Every involution inverting c lies in D, so <c, j> is that D.

    The enumeration runs block by block, one block per point gamma of the
    first basic orbit: s * u_gamma for s in the stabilizer of the first
    base point b.  The block of b is that stabilizer, and c fixes no point,
    so that block is skipped without forming its elements.
    """
    q = action.degree - 1
    chain = action.group.chain()
    cyc = _first_element_of_order(chain, q + 1)
    j = _torus_power_map(cyc, -1)
    if not action.group.contains(j) or j * cyc * j != cyc.inverse():
        raise AssertionError("no inverting involution found")
    D = PermGroup([cyc, j], action.degree)
    if D.order() != 2 * (q + 1):
        raise AssertionError("dihedral subgroup has unexpected order")
    return D


def subgroup_normalizer(action: LabeledAction, H: PermGroup) -> PermGroup:
    """Normalizer in PGammaL2(q) of a dihedral torus subgroup H, in closed form.

    ``action`` is PGammaL2(q) on the projective line and ``H`` is the group
    ``dihedral_2q_plus_2_subgroup`` returns: its first generator c is a
    (q+1)-cycle generating a non-split torus C.  C is characteristic in H,
    so H and C have one normalizer, C extended by the Frobenius of GF(q^2),
    which acts on C by squaring.  That normalizer is <c, x> for the x with
    x(c^k(0)) = c^(2k)(0), that is x(c(p)) = c^2(x(p)) for every point p.
    The solutions of that equation form one coset x<c>, since <c> is the
    centralizer of c in the symmetric group, so x is in the group if any
    solution is.
    """
    c = H.generators[0]
    if H.degree != action.degree:
        raise ValueError("subgroup degree mismatch")
    x = _torus_power_map(c, 2)
    if not action.group.contains(x):
        raise AssertionError("the torus normalizer is not in the action's group")
    N = PermGroup([c, x], action.degree)
    if not all(N.contains(h) for h in H.generators):
        raise AssertionError("H is not inside its computed normalizer")
    return N


def psl2_cosets(f: int) -> LabeledAction:
    """PSL2(q) on the q(q-1)/2 cosets of a dihedral subgroup of order 2(q+1)."""
    proj = psl2(f)
    D = dihedral_2q_plus_2_subgroup(proj)
    act = coset_action(proj, D)
    q = (1 << f)
    if act.degree != q * (q - 1) // 2:
        raise AssertionError("coset action has unexpected degree")
    return act


def pgammal2_cosets(f: int) -> LabeledAction:
    """PGammaL2(q) on the cosets of the normalizer of the dihedral subgroup."""
    proj = pgammal2(f)
    D = dihedral_2q_plus_2_subgroup(psl2(f))
    N = subgroup_normalizer(proj, D)
    q = 1 << f
    if N.order() != 2 * (q + 1) * f:
        raise AssertionError("normalizer has unexpected order")
    act = coset_action(proj, N)
    if act.degree != q * (q - 1) // 2:
        raise AssertionError("coset action has unexpected degree")
    return act


def gl32_subgroup() -> PermGroup:
    """GL(3,2) of order 168 acting on the 7 nonzero vectors of GF(2)^3.

    Point i corresponds to the vector with bits of i+1; the result is an
    index-15 subgroup of A_7 in its natural labeling.
    """
    mats = [
        ((1, 1, 0), (0, 1, 0), (0, 0, 1)),  # transvection
        ((0, 0, 1), (1, 0, 0), (0, 1, 0)),  # coordinate 3-cycle
    ]
    gens = []
    for m in mats:
        images = []
        for i in range(7):
            v = i + 1
            bits = [(v >> r) & 1 for r in range(3)]
            w = 0
            for r in range(3):
                val = sum(m[r][c] * bits[c] for c in range(3)) % 2
                w |= val << r
            images.append(w - 1)
        gens.append(Permutation(tuple(images)))
    G = PermGroup(gens, 7)
    if G.order() != 168:
        raise AssertionError("GL(3,2) construction has wrong order")
    return G


def a7_on_15(a7: LabeledAction | None = None) -> LabeledAction:
    """A_7 acting 2-transitively on the 15 cosets of a GL(3,2) subgroup."""
    if a7 is None:
        a7 = alternating_group(7)
    act = coset_action(a7, gl32_subgroup())
    if act.degree != 15:
        raise AssertionError("expected index 15")
    return act
