"""Independent brute-force oracles used to freeze expected values.

Everything here works by exhaustive enumeration, or for chains by the
plain textbook algorithm, and deliberately shares no code with the engine
beyond the Permutation value type (and, for the cycle-line parser, the
error type it raises, and for the Moebius maps, the field's ``mul`` and
``inv``).
"""

from __future__ import annotations

import re
from itertools import combinations

from qtperm.genfile import ParseError
from qtperm.perm import Permutation

CLOSURE_CAP = 10_000


def brute_elements(generators, degree, cap=CLOSURE_CAP):
    """All group elements by breadth-first product closure."""
    identity = Permutation.identity(degree)
    elems = {identity.images: identity}
    queue = [identity]
    for p in queue:
        for g in generators:
            npm = p * g
            if npm.images not in elems:
                if len(elems) >= cap:
                    raise ValueError(f"closure exceeded cap {cap}")
                elems[npm.images] = npm
                queue.append(npm)
    return list(elems.values())


def brute_order(generators, degree, cap=CLOSURE_CAP):
    return len(brute_elements(generators, degree, cap))


def brute_point_stabilizer_order(elements, point):
    return sum(1 for g in elements if g(point) == point)


def brute_pair_stabilizer_order(elements, a, b):
    return sum(1 for g in elements if g(a) == a and g(b) == b)


def brute_pair_orders(elements, degree):
    """Map unordered pair -> stabilizer order, over the whole domain."""
    return {
        (a, b): brute_pair_stabilizer_order(elements, a, b)
        for a, b in combinations(range(degree), 2)
    }


def brute_action_kernel(generators, degree, points):
    """The elements of the group that fix every point of an invariant set.

    Raises ValueError for a point out of range or a set that some
    generator does not map into itself.
    """
    points = set(points)
    if any(not 0 <= p < degree for p in points):
        raise ValueError("point out of range")
    if any(g(p) not in points for g in generators for p in points):
        raise ValueError("set is not invariant under the group")
    return [g for g in brute_elements(generators, degree)
            if all(g(p) == p for p in points)]


def brute_orbit(generators, point):
    orb = [point]
    seen = {point}
    for p in orb:
        for g in generators:
            q = g(p)
            if q not in seen:
                seen.add(q)
                orb.append(q)
    return sorted(orb)


def _set_partitions(items):
    """Every partition of a list, by recursive placement."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i, block in enumerate(part):
            yield part[:i] + [[first] + block] + part[i + 1:]
        yield [[first]] + part


def brute_is_primitive(elements, points):
    """Transitive action is primitive iff no nontrivial proper block system.

    Exhaustive over all partitions, so only usable for small degree.
    """
    points = sorted(points)
    m = len(points)
    for part in _set_partitions(points):
        sizes = {len(block) for block in part}
        if len(part) in (1, m) or len(sizes) != 1:
            continue
        blocks = [frozenset(block) for block in part]
        block_set = set(blocks)
        if all(frozenset(g(p) for p in block) in block_set
               for g in elements for block in blocks):
            return False
    return True


def brute_least_conjugate(subgroup, elements):
    """The conjugate of a subgroup (a set of image tuples) least under sorted."""
    conjugates = []
    for g in elements:
        g_inv = g.inverse()
        conjugates.append(frozenset(
            (g_inv * Permutation(h) * g).images for h in subgroup))
    return min(conjugates, key=sorted)


def brute_core_free_subgroups(generators, degree):
    """One proper core-free subgroup per conjugacy class, by closure search.

    Closes every set of one or two group elements, so it finds all subgroups
    only of groups whose subgroups need at most two generators, such as the
    dihedral groups. Each subgroup is given as the frozenset of its image
    tuples, the least of its conjugates under ``sorted``, and the list is in
    that order.
    """
    elements = sorted(brute_elements(generators, degree),
                      key=lambda p: p.images)
    subgroups = set()
    for i, a in enumerate(elements):
        for b in elements[i:]:
            subgroups.add(frozenset(
                p.images for p in brute_elements([a, b], degree)))
    identity = frozenset([Permutation.identity(degree).images])
    chosen = set()
    for sub in subgroups:
        if len(sub) == len(elements):
            continue
        core = frozenset.intersection(*(
            brute_least_conjugate(sub, [g]) for g in elements))
        if core == identity:
            chosen.add(brute_least_conjugate(sub, elements))
    return sorted(chosen, key=sorted)


def brute_normalizer(generators, subgroup_generators, degree):
    """Every element of <generators> that normalizes <subgroup_generators>.

    Scans the whole group, so only usable up to the closure cap.
    """
    subgroup = {p.images for p in brute_elements(subgroup_generators, degree)}
    return [g for g in brute_elements(generators, degree)
            if all((g.inverse() * h * g).images in subgroup
                   for h in subgroup_generators)]


def brute_pair_classes(generators, degree, order):
    """(representative, size, stabilizer order) of every orbit on unordered pairs.

    Expands the orbit of each ordered pair (a, b), a < b, breadth-first. Its
    unordered pairs are the class of {a, b}, the least of them is the
    representative, and |G_ab| = |G| / |(a, b)^G|. Sorted by representative.
    """
    images = [g.images for g in generators]
    seen = set()
    classes = []
    for start in combinations(range(degree), 2):
        if start in seen:
            continue
        orbit = {start}
        queue = [start]
        for a, b in queue:
            for g in images:
                image = (g[a], g[b])
                if image not in orbit:
                    orbit.add(image)
                    queue.append(image)
        members = {(min(p), max(p)) for p in orbit}
        seen |= members
        classes.append((min(members), len(members), order // len(orbit)))
    return sorted(classes)


def brute_coset_action(generators, subgroup_generators, degree):
    """The action of <generators> on the right cosets of <subgroup_generators>.

    Every coset Hg is formed in full from the closures of both groups and is
    represented by its least element's image tuple. Returns each
    generator's images on the cosets, listed in ascending order of their
    representatives, and those representatives.
    """
    subgroup = brute_elements(subgroup_generators, degree)
    least = {}  # element images -> its coset's representative
    for g in brute_elements(generators, degree):
        if g.images not in least:
            coset = [(h * g).images for h in subgroup]
            least.update(dict.fromkeys(coset, min(coset)))
    reps = sorted(set(least.values()))
    index = {rep: i for i, rep in enumerate(reps)}
    gens = [tuple(index[least[(Permutation(rep) * s).images]] for rep in reps)
            for s in generators]
    return gens, reps


def brute_torus_generator(elements, order):
    """The first of ``elements`` with the given order, by a full scan.

    Fed the engine's whole enumeration of PSL2(q) and order q+1, this is
    the torus search as it was before it skipped the first block.
    """
    for g in elements:
        if g.order() == order:
            return g
    raise ValueError(f"no element of order {order}")


def plain_schreier_sims(generators, degree, base_prefix=()):
    """The textbook deterministic Schreier-Sims that ``build_chain`` follows.

    It takes the same base, generator order and breadth-first Schreier
    trees, but rescans each level from the least gamma and sifts every
    Schreier generator u_gamma g u_delta^-1 with inverses, skipping none.
    Returns the base, the strong generators per level and each level's
    transversal as a dict from gamma to u_gamma.
    """
    gens = []
    for g in generators:
        if not g.is_identity() and g not in gens:
            gens.append(g)
    base = list(base_prefix)
    for g in gens:
        if all(g(b) == b for b in base):
            base.append(g.first_moved_point())
    strong = [[g for g in gens if all(g(b) == b for b in base[:i])]
              for i in range(len(base) + 1)]

    def transversal(i):
        u = {base[i]: Permutation.identity(degree)}
        queue = [base[i]]
        for a in queue:
            for g in strong[i]:
                if g(a) not in u:
                    u[g(a)] = u[a] * g
                    queue.append(g(a))
        return u

    def sift(r, start):
        for i in range(start, len(base)):
            if r(base[i]) not in trans[i]:
                return r, i
            r = r * trans[i][r(base[i])].inverse()
        return r, len(base)

    def first_residue(i):
        for gamma in sorted(trans[i]):
            for g in strong[i]:
                s = trans[i][gamma] * g * trans[i][g(gamma)].inverse()
                r, j = sift(s, i + 1)
                if not r.is_identity():
                    return r, j
        return None

    trans = [transversal(i) for i in range(len(base))]
    i = len(base) - 1
    while i >= 0:
        found = first_residue(i)
        if found is None:
            i -= 1
            continue
        r, j = found
        if j == len(base):
            base.append(r.first_moved_point())
            strong.append([])
            trans.append(None)
        for level in range(i + 1, j + 1):
            strong[level].append(r)
            trans[level] = transversal(level)
        i = j
    return base, strong, trans


def moebius_images(field, a, b, c, d):
    """The images of x -> (a x + b) / (c x + d) on the projective line.

    Points 0..q-1 are the elements of ``field`` and q is infinity; a, b, c
    and d are field elements with a d + b c != 0.  Addition in GF(2^f) is
    ``^``; products and quotients come from ``field.mul`` and ``field.inv``.
    """
    q = field.q

    def ratio(num, den):
        return q if den == 0 else field.mul(num, field.inv(den))

    finite = [ratio(field.mul(a, x) ^ b, field.mul(c, x) ^ d)
              for x in range(q)]
    return tuple(finite + [ratio(a, c)])


def chain_elements(chain, level=0):
    """The elements of a chain's level ``level``, by the recursive enumeration.

    For u in level ``level``'s transversal by ascending point, and s in the
    elements of the next level enumerated the same way, yield s * u. This is
    the order ``StabilizerChain.elements`` gives, formed one product per
    element per level.
    """
    if level == len(chain.base):
        yield Permutation.identity(chain.degree)
        return
    trans = chain.transversals[level]
    for gamma in sorted(trans):
        u = trans[gamma]
        for s in chain_elements(chain, level + 1):
            yield s * u


_CYCLE_LINE = re.compile(r"^(\s*\(\s*[0-9\s,]*\))+\s*$")
_CYCLE = re.compile(r"\(([^()]*)\)")
_SEPARATOR = re.compile(r"\s*,\s*|\s+")


def parse_cycle_line(text, degree, lineno):
    """One cycle line of a generator file, read point by point.

    Each cycle's tokens are read as ints, then each point is checked in
    order: first its range, then whether an earlier point repeats it.
    """
    if not _CYCLE_LINE.match(text):
        raise ParseError(f"bad cycle syntax: {text.strip()!r}", lineno)
    cycles = []
    seen = set()
    for body in _CYCLE.findall(text):
        body = body.strip()
        if not body:
            continue
        try:
            points = [int(tok) for tok in _SEPARATOR.split(body)]
        except ValueError:
            raise ParseError(f"bad cycle syntax: {text.strip()!r}", lineno)
        for p in points:
            if not 1 <= p <= degree:
                raise ParseError(f"point {p} outside 1..{degree}", lineno)
            if p in seen:
                raise ParseError(f"point {p} repeated across cycles", lineno)
            seen.add(p)
        cycles.append(tuple(p - 1 for p in points))
    return Permutation.from_cycles(degree, cycles)
