"""Subgroup lattice enumeration up to conjugacy, with certified completeness.

The enumerator works bottom-up in index space: cyclic subgroups first, then
closures of known class representatives with cyclic subgroups until no new
class appears.  Every chain of subgroups realizes its target through such
steps, and conjugate results come from conjugate inputs, so the class list is
complete whenever the whole group fits in its element table.  Targeted
searches prune by Lagrange: intermediate subgroups of an order-m subgroup
have order dividing m.

Maximal classes are read off the same enumeration.  Each representative R
is extended by one cyclic subgroup from every R-orbit of cyclic subgroups
outside it.  That covers every element x outside R: <R, x> = <R, <x>>, and
when <x> = C^r for the extended cyclic C and some r in R, then
<R, x> = <R, C>^r.  So a proper class none of whose extensions is a proper
subgroup has only G above it, which is maximality.  `maximal_subgroups`
still certifies every such class directly before returning it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .gf import _largest_proper_divisor
from .groups import PermGroup, Subgroup
from .tables import ElementTable, coset_gather, element_table

DEFAULT_ORDER_CAP = 5_000
NORMAL_CAP = 10_000


@dataclass
class SubgroupClass:
    """A conjugacy class of subgroups, held by one representative's element
    indices; the representative's stabilizer chain is built on first use."""

    table: ElementTable = field(repr=False)
    indices: frozenset[int] = field(repr=False)
    generator_indices: list[int] = field(repr=False)
    class_size: int
    verified_complete: bool
    # Set by all_subgroups: no extension of the class gave a proper subgroup.
    lattice_maximal: bool = field(default=False, repr=False)
    # Set by maximal_subgroups once certify_maximal has confirmed the class.
    certified_maximal: bool = field(default=False, init=False, repr=False)
    _representative: Optional[Subgroup] = field(default=None, init=False, repr=False,
                                                compare=False)

    @property
    def order(self) -> int:
        return len(self.indices)

    @property
    def representative(self) -> Subgroup:
        rep = self._representative
        if rep is None:
            et = self.table
            # the chain is built, and checked against the class, when `.group` is read
            rep = Subgroup._of_known_order(
                et.group, [et.permutation(i) for i in self.generator_indices], len(self.indices))
            rep._cache["ambient_indices"] = self.indices
            self._representative = rep
        if self.certified_maximal:
            rep._cache["certified_maximal"] = True
        return rep

    def normalizer_order(self) -> int:
        """Orbit-stabilizer: |G| = class size * |normalizer|."""
        return self.table.group.order // self.class_size


class _Registry:
    """Dedup store: every conjugate of every registered subgroup is indexed."""

    def __init__(self, et: ElementTable):
        self.et = et
        self.seen: dict[frozenset[int], int] = {}
        self.reps: list[frozenset[int]] = []
        self.sizes: list[int] = []
        self.gens: list[list[int]] = []

    def register(self, subset: frozenset[int]) -> tuple[int, bool]:
        found = self.seen.get(subset)
        if found is not None:
            return found, False
        orbit = _conjugates(self.et, subset)
        cid = len(self.reps)
        canonical = min(orbit, key=sorted)
        for s in orbit:
            self.seen[s] = cid
        self.reps.append(canonical)
        self.sizes.append(len(orbit))
        self.gens.append(self.et.extract_generators(canonical))
        return cid, True


def _cyclic_subgroups(et: ElementTable, target: int
                      ) -> tuple[list[tuple[frozenset[int], int]], list[int]]:
    """Distinct cyclic subgroups with order dividing target, each with its least
    generator, and for every element x the position of <x> in that list (-1
    for the identity and for orders not dividing target)."""
    found: dict[frozenset[int], int] = {}
    owner: list[Optional[frozenset[int]]] = [None] * et.n
    for i in range(1, et.n):
        if owner[i] is not None or target % et.element_order(i):
            continue
        s = et.cyclic_subgroup(i)
        found[s] = i
        for x in s:
            if et.element_order(x) == len(s):
                owner[x] = s
    cyclics = sorted(found.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    position = {s: k for k, (s, _gen) in enumerate(cyclics)}
    return cyclics, [-1 if s is None else position[s] for s in owner]


def _enumerate_classes(G: PermGroup, *, divisor_target: Optional[int] = None
                       ) -> tuple[list[int], _Registry, set[int]]:
    """Class ids found, the registry holding them, and the ids of the classes
    that some extension grew into a subgroup within the closure bound."""
    et = element_table(G, DEFAULT_ORDER_CAP)
    n = et.n
    target = divisor_target if divisor_target is not None else n
    registry = _Registry(et)
    cyclics, cyclic_id = _cyclic_subgroups(et, target)
    conj = et.conj

    queue: deque[int] = deque()
    found: set[int] = set()
    for s in [frozenset([0])] + [s for s, _gen in cyclics]:
        cid, new = registry.register(s)
        if new:
            found.add(cid)
            queue.append(cid)
    if target == n:
        # A partial closure above the largest proper divisor can only end at G.
        bound = _largest_proper_divisor(n)
        found.add(registry.register(frozenset(range(n)))[0])
    else:
        bound = target

    grew: set[int] = set()
    while queue:
        rid = queue.popleft()
        rep = registry.reps[rid]
        if len(rep) == target:
            continue  # nothing above the target order can matter
        rep_gens = registry.gens[rid]
        # Candidates up to conjugacy under the representative itself:
        # <R, c^r> = <R, c>^r, so one cyclic per R-orbit suffices.
        done = bytearray(len(cyclics))
        for k, (_cset, cgen) in enumerate(cyclics):
            if done[k] or cgen in rep:
                continue
            done[k] = 1
            stack = [cgen]
            while stack:
                x = stack.pop()
                for g in rep_gens:
                    y = conj(x, g)
                    j = cyclic_id[y]
                    if not done[j]:
                        done[j] = 1
                        stack.append(y)
            grown = et.closure(rep, rep_gens, [cgen], abort_above=bound)
            if grown is None:
                continue
            grew.add(rid)
            if target % len(grown):
                continue
            cid, new = registry.register(grown)
            if new:
                found.add(cid)
                queue.append(cid)
    return sorted(found), registry, grew


def _class_from_registry(registry: _Registry, cid: int,
                         lattice_maximal: bool = False) -> SubgroupClass:
    et = registry.et
    indices = registry.reps[cid]
    gens = registry.gens[cid]
    if et.closure(None, [], gens) != indices:
        raise RuntimeError("extracted generators do not span their subgroup")
    return SubgroupClass(et, indices, gens, registry.sizes[cid], True, lattice_maximal)


def all_subgroups(G: PermGroup) -> list[SubgroupClass]:
    """All conjugacy classes of subgroups, sorted by order then lexicographically."""
    cached = G._cache.get("all_subgroups")
    if cached is not None:
        return cached
    ids, registry, grew = _enumerate_classes(G)
    # With the whole group as target, a class that grew has a proper overgroup.
    classes = [_class_from_registry(registry, cid, len(registry.reps[cid]) < G.order
                                    and cid not in grew) for cid in ids]
    classes.sort(key=lambda c: (c.order, sorted(c.indices)))
    G._cache["all_subgroups"] = classes
    return classes


def subgroup_count(G: PermGroup) -> int:
    """Total number of subgroups (all conjugates counted)."""
    return sum(c.class_size for c in all_subgroups(G))


def subgroups_of_index(G: PermGroup, k: int) -> list[SubgroupClass]:
    """Classes of subgroups of index k; complete by the divisor-pruned search."""
    if k < 1:
        raise ValueError("index must be positive")
    if G.order % k:
        return []
    m = G.order // k
    ids, registry, _grew = _enumerate_classes(G, divisor_target=m)
    classes = [_class_from_registry(registry, cid)
               for cid in ids if len(registry.reps[cid]) == m]
    classes.sort(key=lambda c: (c.order, sorted(c.indices)))
    return classes


def certify_maximal(G: PermGroup, subset: frozenset[int], gens: Sequence[int],
                    et: Optional[ElementTable] = None) -> bool:
    """Direct maximality certificate: closure with anything outside is all of G."""
    if et is None:
        et = element_table(G, NORMAL_CAP)
    n = et.n
    if len(subset) == n:
        return False
    bound = _largest_proper_divisor(n)
    covered = [False] * n
    for x in subset:
        covered[x] = True
    coset = coset_gather(sorted(subset))
    rows = et.rows
    for x in range(n):
        if covered[x]:
            continue
        grown = et.closure(subset, list(gens), [x], abort_above=bound)
        if grown is not None:
            return False  # a proper subgroup strictly above
        # mark the whole coset x*subset: <subset, x*h> = <subset, x> = G for them all
        for y in coset(rows[x]):
            covered[y] = True
    return True


def maximal_subgroups(G: PermGroup) -> list[SubgroupClass]:
    """Maximal subgroup classes, sorted by descending order.

    Candidates are the classes the lattice enumeration found no proper
    overgroup for; each is then re-certified directly rather than trusted
    from the enumeration.
    """
    cached = G._cache.get("maximal_subgroups")
    if cached is not None:
        return cached
    classes = all_subgroups(G)
    et = element_table(G)
    out = []
    for c in classes:
        if not c.lattice_maximal:
            continue
        if not certify_maximal(G, c.indices, c.generator_indices, et):
            raise RuntimeError("lattice-maximal candidate failed direct certification")
        c.certified_maximal = True
        out.append(c)
    out.sort(key=lambda c: (-c.order, sorted(c.indices)))
    G._cache["maximal_subgroups"] = out
    return out


def _conjugates(et: ElementTable, subset: frozenset[int]) -> list[frozenset[int]]:
    """Every conjugate of a subgroup, as index sets, in no fixed order."""
    orbit = {subset}
    queue = deque([subset])
    while queue:
        s = queue.popleft()
        for g in et.generator_indices:
            t = et.conj_set(s, g)
            if t not in orbit:
                orbit.add(t)
                queue.append(t)
    return list(orbit)


def _normal_join(et: ElementTable, s: frozenset[int], sgens: list[int], x: int) -> frozenset[int]:
    """Normal closure of a normal subgroup s and one element x.

    A subgroup is normal once the conjugates of its generators by G's
    generators lie in it; s is normal already, so only x and the conjugates
    added after it are checked.
    """
    gens = list(sgens) + [x]
    current = et.closure(s, sgens, [x])
    pending = [x]
    while pending:
        y = pending.pop()
        for g in et.generator_indices:
            z = et.conj(y, g)
            if z not in current:
                current = et.closure(current, gens, [z])
                gens.append(z)
                pending.append(z)
    return current


def normal_subgroups(G: PermGroup) -> list[Subgroup]:
    """All normal subgroups, as joins of element conjugacy classes."""
    cached = G._cache.get("normal_subgroups")
    if cached is not None:
        return cached
    et = element_table(G, NORMAL_CAP)
    reps = [c[0] for c in et.conjugacy_classes()]
    trivial = frozenset([0])
    found: dict[frozenset[int], list[int]] = {trivial: []}
    queue = deque([trivial])
    while queue:
        s = queue.popleft()
        sgens = found[s]
        for rep in reps:
            if rep in s or rep == 0:
                continue
            grown = _normal_join(et, s, sgens, rep)
            if grown not in found:
                found[grown] = et.extract_generators(grown)
                queue.append(grown)
    subs = []
    for s in sorted(found, key=lambda s: (len(s), sorted(s))):
        # the chain is built only for the subgroups whose `.group` is read
        subs.append(Subgroup._of_known_order(G, [et.permutation(i) for i in found[s]], len(s)))
        subs[-1]._cache["ambient_indices"] = s
    G._cache["normal_subgroups"] = subs
    return subs


def _normal_covers(G: PermGroup) -> dict[frozenset[int], list[Subgroup]]:
    """The covering relation of the normal subgroup lattice: each normal index
    set maps to the normal subgroups directly above it, in `normal_subgroups`
    order.  A pair L < K of the relation is a chief factor K/L of G."""
    cached = G._cache.get("normal_covers")
    if cached is not None:
        return cached
    normals = normal_subgroups(G)
    sets = [n._cache["ambient_indices"] for n in normals]
    covers: dict[frozenset[int], list[Subgroup]] = {}
    for i, s in enumerate(sets):
        # Normals come sorted by order, so any normal strictly between s and a
        # later t was met before t, and then so was a cover of s below t.
        above: list[int] = []
        for j in range(i + 1, len(sets)):
            if s < sets[j] and not any(sets[k] < sets[j] for k in above):
                above.append(j)
        covers[s] = [normals[j] for j in above]
    G._cache["normal_covers"] = covers
    return covers


def minimal_normal_subgroups(G: PermGroup) -> list[Subgroup]:
    """Atoms of the normal subgroup lattice (G itself counts when simple)."""
    return list(_normal_covers(G)[frozenset([0])])


@dataclass
class KleinFourClass:
    """A conjugacy class of Klein four-subgroups with its normalizer order."""

    representative: Subgroup
    class_size: int
    normalizer_order: int
    indices: frozenset[int] = field(repr=False, default=frozenset())


def klein_four_classes(G: PermGroup) -> list[KleinFourClass]:
    """Conjugacy classes of Klein four-subgroups (pairs of commuting involutions)."""
    et = element_table(G, NORMAL_CAP)
    n = et.n
    involutions = [i for i in range(1, n) if et.element_order(i) == 2]
    seen: set[frozenset[int]] = set()
    classes = []
    for idx, a in enumerate(involutions):
        for b in involutions[idx + 1:]:
            ab = et.mul(a, b)
            if ab != et.mul(b, a):
                continue
            s = frozenset([0, a, b, ab])
            if len(s) != 4 or s in seen:
                continue
            orbit = _conjugates(et, s)
            seen.update(orbit)
            canonical = min(orbit, key=sorted)
            norm_order = n // len(orbit)
            gens = et.extract_generators(canonical)
            sub = Subgroup(G, [et.permutation(i) for i in gens], check=False)
            classes.append(KleinFourClass(representative=sub, class_size=len(orbit),
                                          normalizer_order=norm_order, indices=canonical))
    classes.sort(key=lambda c: sorted(c.indices))
    return classes


def fuse_subgroup_classes(G: PermGroup, reps: Sequence[frozenset[tuple[int, ...]]]) -> list[list[int]]:
    """Partition subgroup element-sets (image tuples) by conjugacy in G.

    Useful when the subgroups were found inside a smaller ambient group and
    the question is how the classes fuse in the bigger one.  The sets are
    read into G's element table and each block is one `_conjugates` orbit.
    """
    et = element_table(G, NORMAL_CAP)
    sets = [frozenset(et.index[t] for t in s) for s in reps]
    remaining = list(range(len(sets)))
    blocks: list[list[int]] = []
    while remaining:
        orbit = set(_conjugates(et, sets[remaining[0]]))
        blocks.append([j for j in remaining if sets[j] in orbit])
        remaining = [j for j in remaining if sets[j] not in orbit]
    return blocks
