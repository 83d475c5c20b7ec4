"""Permutation groups with deterministic stabilizer chains, and the standard
operations built on sifting: membership and normalizers.  A caller's
subgroup of G is a `PermGroup` on G's points, and so is a normalizer; the
pipeline holds the subgroups it derives as index sets of G's element table
(`lattice.SubgroupClass`).  Quotients D/L are read off an element table as
table groups."""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterable, Sequence

import numpy as np

from .perms import Permutation

# Largest subgroup H whose elements `normalizer` lists.
_NORMALIZER_SUBGROUP_CAP = 1_000_000
# Largest conjugation orbit `normalizer` walks.
_NORMALIZER_ORBIT_CAP = 500_000


class DegreeMismatchError(ValueError):
    """Raised when permutations of different degrees are mixed."""


class CapExceededError(RuntimeError):
    """Raised when an operation would exceed its configured size cap."""


class NotASubgroupError(ValueError):
    """Raised when a claimed subgroup element fails membership."""


class NotNormalError(ValueError):
    """Raised when an operation requires a normal subgroup."""


class _Level:
    """One level of a stabilizer chain: a base point with its transversal."""

    __slots__ = ("point", "gens", "transversal", "inverse_reps")

    def __init__(self, point: int):
        self.point = point
        self.gens: list[Permutation] = []  # generators first appearing at this level
        self.transversal: dict[int, Permutation] = {}
        self.inverse_reps: dict[int, Permutation] = {}


def _choose_base_point(g: Permutation) -> int:
    # Greedy heuristic: take a point from the longest cycle of g, ties to the
    # smallest point, so transversals start as large as possible.
    best_key = None
    best_pt = -1
    for cyc in g.cycles():
        key = (-len(cyc), cyc[0])
        if best_key is None or key < best_key:
            best_key = key
            best_pt = cyc[0]
    if best_pt < 0:
        raise ValueError("identity permutation has no base point")
    return best_pt


class PermGroup:
    """A finite permutation group with a verified stabilizer chain.

    Instances are immutable once constructed; the `_cache` dict only memoizes
    derived data (element tables, fingerprints) and never changes group
    identity.
    """

    __slots__ = ("degree", "generators", "base", "order", "_levels", "_cache")

    def __init__(self, degree: int, generators: Iterable[Permutation]):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        gens = []
        for g in generators:
            if not isinstance(g, Permutation):
                raise TypeError(f"expected Permutation, got {type(g).__name__}")
            if g.degree != degree:
                raise DegreeMismatchError(f"generator degree {g.degree} != group degree {degree}")
            if not g.is_identity():
                gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        levels = _schreier_sims(degree, gens)
        self._levels = levels
        self.base = tuple(lv.point for lv in levels)
        order = 1
        for lv in levels:
            order *= len(lv.transversal)
        self.order = order
        self._cache: dict = {}
        # Certification: every input generator must sift to the identity.
        for g in gens:
            if not self._sift(g).is_identity():
                raise RuntimeError("stabilizer chain failed to absorb its own generator")

    # -- membership ---------------------------------------------------------

    def _sift(self, g: Permutation) -> Permutation:
        h = g
        for lv in self._levels:
            pt = h.images[lv.point]
            rep_inv = lv.inverse_reps.get(pt)
            if rep_inv is None:
                return h
            h = h * rep_inv
        return h

    def contains(self, g: Permutation) -> bool:
        """Membership test by sifting through the stabilizer chain."""
        if g.degree != self.degree:
            return False
        return self._sift(g).is_identity()

    __contains__ = contains

    # -- basic accessors ----------------------------------------------------

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1:])

    def orbit(self, point: int) -> list[int]:
        """Orbit of a point under the group, in BFS discovery order."""
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} out of range")
        seen = {point}
        queue = deque([point])
        out = [point]
        while queue:
            p = queue.popleft()
            for g in self.generators:
                q = g.images[p]
                if q not in seen:
                    seen.add(q)
                    out.append(q)
                    queue.append(q)
        return out

    def orbits(self) -> list[list[int]]:
        seen: set[int] = set()
        out = []
        for p in range(self.degree):
            if p not in seen:
                orb = self.orbit(p)
                seen.update(orb)
                out.append(orb)
        return out

    def elements(self) -> Iterable[Permutation]:
        """All elements via transversal products, deepest level first."""
        levels = self._levels
        if not levels:
            yield self.identity()
            return
        rep_lists = [[lv.transversal[pt] for pt in sorted(lv.transversal)] for lv in levels]
        for combo in itertools.product(*reversed(rep_lists)):
            g = combo[0]
            for u in combo[1:]:
                g = g * u
            yield g

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"


def _schreier_sims(degree: int, gens: Sequence[Permutation]) -> list[_Level]:
    """Deterministic Schreier-Sims: returns a complete stabilizer chain."""
    levels: list[_Level] = []

    def strip(g: Permutation, start: int) -> tuple[Permutation, int]:
        h = g
        idx = start
        while idx < len(levels):
            lv = levels[idx]
            pt = h.images[lv.point]
            rep_inv = lv.inverse_reps.get(pt)
            if rep_inv is None:
                return h, idx
            h = h * rep_inv
            idx += 1
        return h, idx

    def effective_gens(i: int) -> list[Permutation]:
        return list(itertools.chain.from_iterable(lv.gens for lv in levels[i:]))

    def rebuild_orbit(i: int) -> None:
        lv = levels[i]
        gens_i = effective_gens(i)
        ident = Permutation.identity(degree)
        lv.transversal = {lv.point: ident}
        lv.inverse_reps = {lv.point: ident}
        queue = deque([lv.point])
        while queue:
            pt = queue.popleft()
            rep = lv.transversal[pt]
            for s in gens_i:
                q = s.images[pt]
                if q not in lv.transversal:
                    u = rep * s
                    lv.transversal[q] = u
                    lv.inverse_reps[q] = u.inverse()
                    queue.append(q)

    def add_generator(g: Permutation, level_idx: int) -> None:
        if level_idx == len(levels):
            levels.append(_Level(_choose_base_point(g)))
        levels[level_idx].gens.append(g)

    for g in gens:
        if g.is_identity():
            continue
        idx = 0
        while idx < len(levels) and g.images[levels[idx].point] == levels[idx].point:
            idx += 1
        add_generator(g, idx)

    for i in range(len(levels)):
        rebuild_orbit(i)

    i = len(levels) - 1
    while i >= 0:
        rebuild_orbit(i)
        lv = levels[i]
        gens_i = effective_gens(i)
        restart_at = None
        # Orbit points in discovery-deterministic sorted order.
        for pt in sorted(lv.transversal):
            u = lv.transversal[pt]
            for s in gens_i:
                target = s.images[pt]
                schreier = u * s * lv.inverse_reps[target]
                if schreier.is_identity():
                    continue
                residue, at = strip(schreier, i + 1)
                if not residue.is_identity():
                    add_generator(residue, at)
                    restart_at = at
                    break
            if restart_at is not None:
                break
        if restart_at is not None:
            i = restart_at
        else:
            i -= 1
    return levels


def trivial_group(degree: int) -> PermGroup:
    return PermGroup(degree, [])


def normalizer(G: PermGroup, H: PermGroup) -> PermGroup:
    """Normalizer in G of H, a subgroup on G's points: the stabilizer of H in
    its conjugation orbit, generated by Schreier generators and certified by
    orbit-stabilizer.  H's generators are sifted through G's chain first, as
    the orbit key below holds only for H <= G; one outside G raises
    NotASubgroupError.

    Each conjugate of H is held as one numpy block, the (|H| x degree) array
    of its elements' images; conjugating by g is the gather
    `gim[block[:, ginv]]`. Its orbit key is the block with its rows sorted
    lexicographically by their images of G's base points, as bytes: those
    images determine an element of G, so no two rows tie, and the sorted
    block is a canonical form of the element set."""
    for h in H.generators:
        if not G.contains(h):
            raise NotASubgroupError(f"generator {h!r} lies outside the group")
    if H.order > _NORMALIZER_SUBGROUP_CAP:
        raise CapExceededError(
            f"subgroup order {H.order} exceeds element cap {_NORMALIZER_SUBGROUP_CAP}")
    dtype = np.uint16 if G.degree <= 1 << 16 else np.uint32
    block = np.array(sorted(h.images for h in H.elements()), dtype=dtype)
    base = list(G.base) or [0]  # a trivial G has no base; its blocks have one row
    ident = Permutation.identity(G.degree)
    # Orbit key -> (transversal element u, its inverse).
    transversal: dict[bytes, tuple[Permutation, Permutation]] = {
        _block_key(block, base): (ident, ident)}
    queue = deque([(block, ident)])
    stab: list[Permutation] = []
    seen_stab: set[tuple[int, ...]] = set()
    actions = [(g, np.array(g.inverse().images, dtype=np.intp), np.array(g.images, dtype=dtype))
               for g in G.generators]
    while queue:
        s, u = queue.popleft()
        for g, ginv, gim in actions:
            t = gim[s[:, ginv]]
            key = _block_key(t, base)
            entry = transversal.get(key)
            if entry is None:
                if len(transversal) >= _NORMALIZER_ORBIT_CAP:
                    raise CapExceededError("conjugation orbit exceeded the normalizer cap")
                ug = u * g
                transversal[key] = (ug, ug.inverse())
                queue.append((t, ug))
            else:
                sg = u * g * entry[1]
                if not sg.is_identity() and sg.images not in seen_stab:
                    seen_stab.add(sg.images)
                    stab.append(sg)
    result = _reduce_generating_set(G.degree, stab)
    if result.order * len(transversal) != G.order:
        raise RuntimeError("orbit-stabilizer bookkeeping failed in normalizer")
    return result


def _block_key(block: np.ndarray, base: list[int]) -> bytes:
    """The block's rows in lexicographic order of their base images, as bytes."""
    return block[np.lexsort(block[:, base].T[::-1])].tobytes()


def _reduce_generating_set(degree: int, elems: Sequence[Permutation]) -> PermGroup:
    """The group the given elements generate, on a small generating subset of
    them picked deterministically."""
    gens: list[Permutation] = []
    current = PermGroup(degree, [])
    for g in sorted(set(elems)):
        if g.is_identity():
            continue
        if not current.contains(g):
            gens.append(g)
            current = PermGroup(degree, gens)
    return current


# The one trivial quotient: every D/L with D inside L is this group.
TRIVIAL_QUOTIENT = trivial_group(1)


def coset_action(et, d_gens: Sequence[int], l_set: frozenset[int]):
    """D/L as a table group, for D = <d_gens> * L.  The indices `d_gens` of
    the element table `et` generate D together with L; `l_set` holds the
    indices of L, a normal subgroup of D.  When every generator lies in L,
    an empty `d_gens` included, D = L and the shared trivial group
    `TRIVIAL_QUOTIENT` is returned at once.

    Otherwise the cosets Ly = yL are found breadth-first from L, each one
    gather from row y, and numbered by their least members; for L = 1 that
    is D's indices in order.  The quotient's Cayley table is G's table at
    those least members, read through the coset-label array, a block of rows
    at a time, so no temporary exceeds about `_TABLE_CHUNK` cells."""
    from .tables import _TABLE_CHUNK, TableGroup, coset_gather  # tables imports this module

    if all(d in l_set for d in d_gens):
        return TRIVIAL_QUOTIENT
    if any(et.conj(x, d) not in l_set for d in d_gens for x in l_set):
        raise NotNormalError("quotient requires a normal subgroup")
    rows = et.rows
    coset = coset_gather(sorted(l_set))
    found = dict.fromkeys(l_set, 0)  # element -> coset, in order of discovery
    least = [0]
    for rep in least:  # grows as cosets are found, so this is the BFS queue
        row = rows[rep]
        for d in d_gens:
            y = row[d]
            if y not in found:
                members = coset(rows[y])
                found.update(dict.fromkeys(members, len(least)))
                least.append(min(members))
    renumber = np.argsort(np.argsort(least))  # discovery order -> least-member order
    label = np.zeros(et.n, dtype=np.uint16)  # read only at D's indices
    label[list(found)] = renumber[list(found.values())]
    reps = np.sort(least)
    m = len(reps)
    table = np.empty((m, m), dtype=np.uint16)
    step = max(1, _TABLE_CHUNK // m)
    for start in range(0, m, step):
        table[start:start + step] = label[et._mul_table[np.ix_(reps[start:start + step], reps)]]
    return TableGroup(table, [int(label[d]) for d in d_gens if d not in l_set])

