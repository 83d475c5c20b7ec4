"""Permutation groups with deterministic stabilizer chains, and the standard
operations built on sifting: membership and normalizers.  A caller's
subgroup of G is a `PermGroup` on G's points, and so is a normalizer; the
pipeline holds the subgroups it derives as index sets of G's element table
(`lattice.SubgroupClass`).  Quotients D/L are read off an element table as
table groups.

The chain is built and kept on raw image tuples, a*b composed as
`itemgetter(*a)(b)`.  The elements of a group are enumerated as one numpy
array of image rows, `element_images`, with no Python object per element."""

from __future__ import annotations

import itertools
from collections import deque
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

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


class _Level(NamedTuple):
    """One level of a stabilizer chain, every element an image tuple: a base
    point, the generators first appearing at it, and its transversal with
    each element's inverse, by orbit point."""

    point: int
    gens: list[tuple[int, ...]]
    transversal: dict[int, tuple[int, ...]]
    inverse_reps: dict[int, tuple[int, ...]]


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
        h = g.images
        for lv in self._levels:
            rep_inv = lv.inverse_reps.get(h[lv.point])
            if rep_inv is None:
                break
            h = itemgetter(*h)(rep_inv)
        return Permutation._unsafe(h)

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

    def element_images(self) -> np.ndarray:
        """Every element's images, one row each, in lexicographic order: the
        (order x degree) array of transversal products, formed a level at a
        time as one gather, deepest level first, then sorted as fixed-width
        big-endian rows, whose byte order is their lexicographic order."""
        out = np.arange(self.degree, dtype=_image_dtype(self.degree))[None, :]
        for lv in reversed(self._levels):
            reps = np.array([lv.transversal[pt] for pt in sorted(lv.transversal)],
                            dtype=out.dtype)
            # row (j, i) is out_i * reps_j, whose image of x is reps_j[out_i[x]]
            out = np.take(reps, out, axis=1).reshape(-1, self.degree)
        big_endian = out.astype(out.dtype.newbyteorder(">"))
        return out[np.argsort(_row_keys(big_endian))]

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"


def _schreier_sims(degree: int, gens: Sequence[Permutation]) -> list[_Level]:
    """Deterministic Schreier-Sims: returns a complete stabilizer chain.  A
    transversal element rep*s gets its inverse as s^-1 * rep^-1, composed
    from its parent's."""
    points: list[int] = []  # base point of each level
    level_gens: list[list[tuple[int, ...]]] = []  # generators first appearing at each level
    inverse_of: dict[tuple[int, ...], tuple[int, ...]] = {}  # each generator's inverse
    transversals: list[dict[int, tuple[int, ...]]] = []
    inverses: list[dict[int, tuple[int, ...]]] = []
    ident = tuple(range(degree))

    def strip(h: tuple[int, ...], start: int) -> tuple[tuple[int, ...], int]:
        idx = start
        while idx < len(points):
            rep_inv = inverses[idx].get(h[points[idx]])
            if rep_inv is None:
                return h, idx
            h = itemgetter(*h)(rep_inv)
            idx += 1
        return h, idx

    def effective_gens(i: int) -> list[tuple[int, ...]]:
        return list(itertools.chain.from_iterable(level_gens[i:]))

    def rebuild_orbit(i: int) -> None:
        gens_i = [(s, inverse_of[s]) for s in effective_gens(i)]
        transversal = transversals[i] = {points[i]: ident}
        inverse = inverses[i] = {points[i]: ident}
        queue = deque([points[i]])
        while queue:
            pt = queue.popleft()
            rep, rep_inv = itemgetter(*transversal[pt]), inverse[pt]
            for s, s_inv in gens_i:
                q = s[pt]
                if q not in transversal:
                    transversal[q] = rep(s)
                    inverse[q] = itemgetter(*s_inv)(rep_inv)
                    queue.append(q)

    def add_generator(g: tuple[int, ...], level_idx: int) -> None:
        if level_idx == len(points):
            points.append(_choose_base_point(Permutation._unsafe(g)))
            level_gens.append([])
            transversals.append({})
            inverses.append({})
        level_gens[level_idx].append(g)
        inverse_of[g] = Permutation._unsafe(g).inverse().images

    for g in gens:
        if g.is_identity():
            continue
        idx = 0
        while idx < len(points) and g.images[points[idx]] == points[idx]:
            idx += 1
        add_generator(g.images, idx)

    # Each level's orbit is built when the walk reaches it, deepest first; a
    # strip reads only the levels below, which the walk has built already.
    i = len(points) - 1
    while i >= 0:
        rebuild_orbit(i)
        transversal, inverse = transversals[i], inverses[i]
        gens_i = effective_gens(i)
        restart_at = None
        # Orbit points in discovery-deterministic sorted order.
        for pt in sorted(transversal):
            u = itemgetter(*transversal[pt])
            for s in gens_i:
                schreier = itemgetter(*u(s))(inverse[s[pt]])
                if schreier == ident:
                    continue
                residue, at = strip(schreier, i + 1)
                if residue != ident:
                    add_generator(residue, at)
                    restart_at = at
                    break
            if restart_at is not None:
                break
        if restart_at is not None:
            i = restart_at
        else:
            i -= 1

    return [_Level(*level) for level in zip(points, level_gens, transversals, inverses)]


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
    `gim[block[:, ginv]]`.  Its orbit key is the set of the block's rows
    restricted to G's base points, sorted as bytes: those images determine an
    element of G, so they determine the conjugate.  A conjugate is keyed from
    its base columns alone, `gim[block[:, ginv[base]]]`, and its whole block
    is built only when it is new to the orbit.  Transversal elements and
    Schreier generators are composed as image tuples."""
    for h in H.generators:
        if not G.contains(h):
            raise NotASubgroupError(f"generator {h!r} lies outside the group")
    if H.order > _NORMALIZER_SUBGROUP_CAP:
        raise CapExceededError(
            f"subgroup order {H.order} exceeds element cap {_NORMALIZER_SUBGROUP_CAP}")
    block = H.element_images()
    base = list(G.base) or [0]  # a trivial G has no base; its blocks have one row
    ident = tuple(range(G.degree))
    # Orbit key -> the inverse of its transversal element.
    transversal: dict[bytes, tuple[int, ...]] = {_block_key(block[:, base]): ident}
    queue = deque([(block, ident, ident)])  # a conjugate, its transversal element u, u^-1
    stab: set[tuple[int, ...]] = set()
    actions = []
    for g in G.generators:
        ginv = g.inverse().images
        cols = np.array(ginv, dtype=np.intp)
        actions.append((g.images, ginv, cols, cols[base], np.array(g.images, dtype=block.dtype)))
    while queue:
        s, u, u_inv = queue.popleft()
        then = itemgetter(*u)
        for g, ginv, cols, base_cols, gim in actions:
            key = _block_key(gim[s[:, base_cols]])
            ug = then(g)
            entry = transversal.get(key)
            if entry is None:
                if len(transversal) >= _NORMALIZER_ORBIT_CAP:
                    raise CapExceededError("conjugation orbit exceeded the normalizer cap")
                ug_inv = transversal[key] = itemgetter(*ginv)(u_inv)
                queue.append((gim[s[:, cols]], ug, ug_inv))
            else:
                stab.add(itemgetter(*ug)(entry))
    stab.discard(ident)
    result = _reduce_generating_set(G.degree, [Permutation._unsafe(x) for x in stab])
    if result.order * len(transversal) != G.order:
        raise RuntimeError("orbit-stabilizer bookkeeping failed in normalizer")
    return result


def _block_key(rows: np.ndarray) -> bytes:
    """A block's base images as bytes, its rows in lexicographic order."""
    return rows[np.lexsort(rows.T[::-1])].tobytes()


def _image_dtype(degree: int) -> type:
    """The smallest unsigned dtype that holds the points 0..degree-1."""
    return np.uint16 if degree <= 1 << 16 else np.uint32


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array as one fixed-width opaque scalar, so that a
    sort or search compares whole rows bytewise."""
    rows = np.ascontiguousarray(rows)
    return rows.view(f"V{rows.dtype.itemsize * rows.shape[1]}").reshape(-1)


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
    return _coset_quotient(et, d_gens, l_set)[0]


def _coset_quotient(et, d_gens: Sequence[int], l_set: frozenset[int]):
    """`coset_action`'s D/L, and the least member of each coset of L, in the
    quotient's index order."""
    from .tables import _TABLE_CHUNK, TableGroup, coset_gather  # tables imports this module

    if all(d in l_set for d in d_gens):
        return TRIVIAL_QUOTIENT, [0]
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
    return TableGroup(table, [int(label[d]) for d in d_gens if d not in l_set]), reps.tolist()

